package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
)

// Everything a run sends is derived from the run seed through derive,
// so the same seed gives the same datasets, requests and schedules.

// derive mixes a label into the run seed, giving each generated input
// its own stream.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return int64(h.Sum64()^uint64(seed)*0x9e3779b97f4a7c15) & (1<<62 - 1)
}

// Dataset shapes: the sparse set is shaped like reuters10x and the
// dense set like music10x, the inputs the executor benchmarks use.
const (
	sparseRows, sparseCols, sparseNNZ = 8000, 1600, 12
	denseRows, denseCols              = 25000, 91
)

func sparseDataset(seed int64, label string, rows int) *data.Dataset {
	return data.GenerateSparse(data.SparseConfig{
		Name: label, Rows: rows, Cols: sparseCols, NNZPerRow: sparseNNZ, Noise: 0.05,
		Seed: derive(seed, label),
	})
}

func denseDataset(seed int64, label string, rows int) *data.Dataset {
	return data.GenerateDense(data.DenseConfig{
		Name: label, Rows: rows, Cols: denseCols, Noise: 0.1, Regression: true,
		Seed: derive(seed, label),
	})
}

// appendRow and appendBody mirror the server's append request.
type appendRow struct {
	Indices []int32   `json:"indices,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Dense   []float64 `json:"dense,omitempty"`
	Label   float64   `json:"label"`
}

type appendBody struct {
	Rows []appendRow `json:"rows"`
	Cols int         `json:"cols,omitempty"`
	Task string      `json:"task,omitempty"`
}

// chunkRows returns rows [lo, hi) of ds as append rows; dense datasets
// travel in the dense encoding.
func chunkRows(ds *data.Dataset, lo, hi int, dense bool) []appendRow {
	out := make([]appendRow, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx, vals := ds.A.Row(i)
		r := appendRow{Label: ds.Labels[i]}
		if dense {
			r.Dense = make([]float64, ds.Cols())
			for k, j := range idx {
				r.Dense[j] = vals[k]
			}
		} else {
			r.Indices, r.Values = idx, vals
		}
		out = append(out, r)
	}
	return out
}

// appendChunk encodes rows [lo, hi) of ds as one append request body;
// the first body of a new stream names its shape (create says so).
func appendChunk(ds *data.Dataset, lo, hi int, dense, create bool) ([]byte, error) {
	body := appendBody{Rows: chunkRows(ds, lo, hi, dense)}
	if create {
		body.Cols = ds.Cols()
		body.Task = ds.Task.String()
	}
	return json.Marshal(body)
}

// toRows converts append rows to the data layer's form, for replaying
// a chunk through data.Handle.Append.
func toRows(rows []appendRow) []data.Row {
	out := make([]data.Row, len(rows))
	for i, r := range rows {
		out[i] = data.Row{Indices: r.Indices, Values: r.Values, Dense: r.Dense, Label: r.Label}
	}
	return out
}

// exampleJSON and predictBody mirror the server's predict request.
type exampleJSON struct {
	Indices []int32   `json:"indices,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Dense   []float64 `json:"dense,omitempty"`
}

type predictBody struct {
	Model    string        `json:"model"`
	Examples []exampleJSON `json:"examples"`
}

// predictCall is one pre-built predict request: its body, the examples
// as the server will decode them, and the model it targets.
type predictCall struct {
	model    string
	body     []byte
	examples []model.Example
}

// buildPredictCall encodes rows of ds (dense in the dense encoding) as
// one predict request for modelID.
func buildPredictCall(modelID string, ds *data.Dataset, rows []int, dense bool) (predictCall, error) {
	b := predictBody{Model: modelID}
	exs := make([]model.Example, 0, len(rows))
	for _, i := range rows {
		idx, vals := ds.A.Row(i)
		if dense {
			d := make([]float64, ds.Cols())
			for k, j := range idx {
				d[j] = vals[k]
			}
			b.Examples = append(b.Examples, exampleJSON{Dense: d})
			exs = append(exs, model.DenseExample(d))
		} else {
			b.Examples = append(b.Examples, exampleJSON{Indices: idx, Values: vals})
			exs = append(exs, model.Example{Idx: idx, Vals: vals})
		}
	}
	buf, err := json.Marshal(b)
	if err != nil {
		return predictCall{}, err
	}
	return predictCall{model: modelID, body: buf, examples: exs}, nil
}

// predictClass is one kind of predict request in a pool: a model,
// the held-out rows its examples come from, the batch size, and the
// class's share of the pool.
type predictClass struct {
	model string
	rows  *data.Dataset
	dense bool
	batch int
	share float64
}

// predictPool builds n predict requests with each class's exact share
// (rounded), drawing examples and the order of the pool from the seed.
func predictPool(seed int64, label string, n int, classes []predictClass) ([]predictCall, error) {
	rng := rand.New(rand.NewSource(derive(seed, label)))
	var out []predictCall
	for k, c := range classes {
		count := int(math.Round(c.share * float64(n)))
		if k == len(classes)-1 {
			count = n - len(out)
		}
		for ; count > 0; count-- {
			rows := make([]int, c.batch)
			for i := range rows {
				rows[i] = rng.Intn(c.rows.Rows())
			}
			pc, err := buildPredictCall(c.model, c.rows, rows, c.dense)
			if err != nil {
				return nil, err
			}
			out = append(out, pc)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// openSchedule is an open-loop send schedule: request i is due at
// due[i] after the phase starts and sends pool entry pick[i].
type openSchedule struct {
	due  []time.Duration
	pick []int
}

// fixedRate sends at exactly rate requests per second for d. It walks
// the pool (of poolSize) in order from a seeded offset, so every phase
// sends the pool's classes in their exact shares.
func fixedRate(seed int64, label string, rate float64, d time.Duration, poolSize int) openSchedule {
	offset := int(derive(seed, label) % int64(poolSize))
	n := int(rate * d.Seconds())
	s := openSchedule{due: make([]time.Duration, n), pick: make([]int, n)}
	gap := time.Duration(float64(time.Second) / rate)
	for i := range s.due {
		s.due[i] = time.Duration(i) * gap
		s.pick[i] = (offset + i) % poolSize
	}
	return s
}

// jobSeed is the engine seed of a train client's k-th job.
func jobSeed(seed int64, client, k int) int64 {
	return 1 + derive(seed, "job")%1_000_000 + int64(client)*1_000_000 + int64(k)
}
