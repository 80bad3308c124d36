package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"dimmwitted/internal/data"
)

// Every input a run sends must depend on the seed alone.

func TestDatasetsDependOnlyOnSeed(t *testing.T) {
	a, b := sparseDataset(7, "sparse", 300), sparseDataset(7, "sparse", 300)
	if !reflect.DeepEqual(a.A, b.A) || !reflect.DeepEqual(a.Labels, b.Labels) {
		t.Fatal("same seed, different sparse data")
	}
	if c := sparseDataset(8, "sparse", 300); reflect.DeepEqual(a.Labels, c.Labels) && reflect.DeepEqual(a.A, c.A) {
		t.Fatal("different seeds, same sparse data")
	}
	if d := sparseDataset(7, "sparse-heldout", 300); reflect.DeepEqual(a.A, d.A) {
		t.Fatal("different labels share one stream")
	}
	x, y := denseDataset(7, "dense", 50), denseDataset(7, "dense", 50)
	if !reflect.DeepEqual(x.A, y.A) || !reflect.DeepEqual(x.Labels, y.Labels) {
		t.Fatal("same seed, different dense data")
	}
	b1, err := appendChunk(x, 0, 10, true, true)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := appendChunk(y, 0, 10, true, true)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed, different append bodies")
	}
}

func TestRequestsDependOnlyOnSeed(t *testing.T) {
	pool := func(seed int64) []predictCall {
		p, err := predictPool(seed, "pool", 100, []predictClass{
			{model: "m1", rows: sparseDataset(seed, "rows", 100), batch: 1, share: 0.75},
			{model: "m2", rows: denseDataset(seed, "drows", 100), dense: true, batch: 64, share: 0.25},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := pool(3), pool(3), pool(4)
	same := func(x, y []predictCall) bool {
		for i := range x {
			if !bytes.Equal(x[i].body, y[i].body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed, different predict requests")
	}
	if same(a, c) {
		t.Fatal("different seeds, same predict requests")
	}
	big := 0
	for _, pc := range a {
		if n := len(pc.examples); n != 1 && n != 64 {
			t.Fatalf("batch of %d examples", n)
		} else if n == 64 {
			big++
		}
	}
	if big != 25 {
		t.Fatalf("%d of %d requests are 64-example batches; want exactly 25", big, len(a))
	}
}

func TestSchedulesDependOnlyOnSeed(t *testing.T) {
	s1 := fixedRate(5, "low", 200, 2*time.Second, 512)
	s2 := fixedRate(5, "low", 200, 2*time.Second, 512)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed, different schedule")
	}
	if s3 := fixedRate(6, "low", 200, 2*time.Second, 512); reflect.DeepEqual(s1.pick, s3.pick) {
		t.Fatal("different seeds, same schedule")
	}
	for i := 1; i < len(s1.pick); i++ {
		if s1.pick[i] != (s1.pick[i-1]+1)%512 {
			t.Fatalf("schedule skips pool entries at %d: %d after %d", i, s1.pick[i], s1.pick[i-1])
		}
	}
	if len(s1.due) != 400 || s1.due[1] != 5*time.Millisecond || s1.due[399] != 399*5*time.Millisecond {
		t.Fatalf("200/s for 2 s: %d requests, gaps %v", len(s1.due), s1.due[1])
	}
	if jobSeed(5, 0, 1) != jobSeed(5, 0, 1) || jobSeed(5, 0, 1) == jobSeed(5, 1, 1) || jobSeed(5, 0, 1) == jobSeed(6, 0, 1) {
		t.Fatal("job seeds do not follow the run seed, client and job")
	}
}

func TestTargetsDependOnlyOnSeed(t *testing.T) {
	for _, c := range []struct {
		model string
		data  func(seed int64) *data.Dataset
	}{
		{"svm", func(seed int64) *data.Dataset { return sparseDataset(seed, "sparse-0", 400) }},
		{"lr", func(seed int64) *data.Dataset { return sparseDataset(seed, "sparse-0", 400) }},
		{"ls", func(seed int64) *data.Dataset { return denseDataset(seed, "dense", 400) }},
	} {
		ds := c.data(7)
		a, err := referenceLoss(c.model, ds)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := referenceLoss(c.model, c.data(7))
		other, _ := referenceLoss(c.model, c.data(8))
		if a != b || a == other {
			t.Errorf("%s: reference loss %v, %v for one seed and %v for another", c.model, a, b, other)
		}
		// The reference must improve on the zero model it starts from.
		if zero := refObjective(c.model, ds, make([]float64, ds.Cols())); !(a > 0 && a < zero/2) {
			t.Errorf("%s: reference loss %v, zero model %v", c.model, a, zero)
		}
	}
	if _, err := referenceLoss("gibbs", sparseDataset(7, "sparse-0", 10)); err == nil {
		t.Error("a model without a reference got one")
	}
}
