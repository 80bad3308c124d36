package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// staleDecoder returns a decoder over body whose scratch buffers hold
// leftovers, as a pooled decoder's do, so a decode that let scratch
// contents leak into its result would show.
func staleDecoder(body []byte) *decoder {
	d := &decoder{b: body}
	for k := 0; k < 8; k++ {
		d.floats = append(d.floats, 12345.5)
		d.ints = append(d.ints, 4321)
		d.unq = append(d.unq, "stale"...)
	}
	d.floats, d.ints, d.unq = d.floats[:0], d.ints[:0], d.unq[:0]
	return d
}

// sameAsEncodingJSON checks that the codec and
// json.NewDecoder(body).Decode agree on whether body is accepted and,
// if it is, on the decoded value.
func sameAsEncodingJSON[T any](t *testing.T, body []byte, decode func(*decoder, *T) error) {
	t.Helper()
	var want, got T
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	gotErr := decode(staleDecoder(body), &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: encoding/json error %v, codec error %v", body, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\ncodec         %#v\nencoding/json %#v", body, got, want)
	}
}

func decodePredict(d *decoder, req *predictRequest) error { return d.predict(req) }
func decodeAppend(d *decoder, req *appendRequest) error   { return d.appendRows(req) }

// predictBodies and appendBodies seed the fuzz targets next to the
// committed corpora under testdata/fuzz, and run as plain tests.
var predictBodies = []string{
	`{"model":"job-1","examples":[{"indices":[3,17],"values":[1.0,0.5]},{"dense":[0,1,0,0.5]}]}`,
	`{"MODEL":"m","Examples":[{"INDICES":[1],"Values":[2],"DeNsE":null}]}`,
	"{\"model\":\"m\",\"examples\":[{\"indices\":[1],\"value\xc5\xbf\":[2]}]}",
	"{\"model\":\"m\",\"examples\":[{\"\xc4\xb0ndices\":[1]}]}",
	`{"mod\u0065l":"a\u00e9\ud83d\ude00\ud800x\udc00\"\\\/\b\f\n\r\t","examples":[{"dense":[1]}]}`,
	"{\"model\":\"\xff\xfe\xed\xa0\x80ok\",\"examples\":[{\"dense\":[1]}]}",
	`{"model":null,"examples":[null,{"indices":null,"values":null,"dense":null}]}`,
	`{"model":"a","model":"b","examples":[{"indices":[1,2,3],"values":[1,2,3]},{},{}],"examples":[{"dense":[4]}],"examples":[{"dense":[5]},{"values":[null]},null]}`,
	`{"examples":[{"values":[1,2,3]}],"examples":[{"values":[9]}],"examples":[{"values":[9,null,null]}]}`,
	`{"examples":[{"indices":[1,2,3,4,5]}],"examples":[{"indices":[]}],"examples":[{"indices":[null]}]}`,
	`{"examples":[{"values":[1,2,3]}],"examples":[{"values":[5,6,7,8]}],"examples":[{"values":[9]}],"examples":[{"values":[9,null,null,null,null]},null,{}]}`,
	`{"model":"m","examples":[{"dense":[1e400]}]}`,
	`{"model":"m","examples":[{"indices":[2147483648],"values":[1]}]}`,
	`{"model":"m","examples":[{"indices":[-2147483649],"values":[1]}]}`,
	`{"model":"m","examples":[{"indices":[1.0],"values":[1]}]}`,
	`{"model":"m","examples":[{"indices":[1e2],"values":[1]}]}`,
	`{"model":"m","examples":[{"indices":[-0,2147483647,-2147483648],"values":[1e-400,5e-324,-0,1E+2,0.1e-0]}]}`,
	`{"model":"m","examples":[{"dense":[1]}]} trailing garbage`,
	`{"model":"m","examples":[{"dense":[1]}]`,
	`{"model":"m","examples":[],"x":{"y":[true,false,null,"s",-0.5e-3,{"z":[]}]}}`,
	" \t\r\n{ \"model\" : \"m\" , \"examples\" : [ { \"dense\" : [ 1 , 2 ] } ] } ",
	`{"model":"m",}`,
	`{"model":"m","examples":[1,]}`,
	`{"model":"m","examples":[{"dense":[01]}]}`,
	`{"model":"m","examples":[{"dense":[1.]}]}`,
	`{"model":"m","examples":[{"dense":[-]}]}`,
	`{"model":"m","examples":[{"dense":[+1]}]}`,
	`{"model":"m","examples":[{"dense":[.5]}]}`,
	`{"model":"m","examples":[{"dense":[1e]}]}`,
	`{"model":"m","examples":[{"dense":["1"]}]}`,
	`{"model":"m","examples":[{"dense":{}}]}`,
	`{"model":"m","examples":{}}`,
	`{"model":5}`,
	`{"model":"m\u00"}`,
	`{"model":"m\x"}`,
	"{\"model\":\"a\tb\"}",
	`{"model":"m","examples":[{"dense":[1]}],"x":tru}`,
	`null`,
	`nullx`,
	`nul`,
	``,
	`   `,
	`[]`,
	`"str"`,
	`123`,
	`{}`,
	`{"examples":[]}`,
	`{"examples":null}`,
}

var appendBodies = []string{
	`{"rows":[{"indices":[0,3],"values":[1,2],"label":1},{"dense":[1,2,3,4],"label":-1}],"cols":4,"task":"regression"}`,
	`{"ROWS":[{"LABEL":1,"Dense":[1]}],"COLS":1,"Task":"classification"}`,
	`{"rows":[{"label":1e400}]}`,
	`{"rows":[{"label":null}],"cols":null,"task":null}`,
	`{"rows":[{"label":"1"}]}`,
	`{"cols":1.5}`,
	`{"cols":9223372036854775807}`,
	`{"cols":9223372036854775808}`,
	`{"cols":-1,"task":"\u0072egression"}`,
	`{"rows":[{"dense":[1],"label":1},{"dense":[2],"label":2}],"rows":[{"label":3}],"rows":[{"dense":[9]},{}]}`,
	`{"rows":[{"indices":[1],"values":[2],"label":0}]} {"rows":[]}`,
	`{"rows":[{"indices":[2147483648],"values":[2]}]}`,
	`{"rows":[null,{"label":-0}],"extra":[[[]]]}`,
	`{"rows":[{"label":1}],"task":5}`,
	`{"rows":true}`,
	`null`,
	``,
}

func TestCodecMatchesEncodingJSON(t *testing.T) {
	for _, b := range predictBodies {
		sameAsEncodingJSON(t, []byte(b), decodePredict)
	}
	for _, b := range appendBodies {
		sameAsEncodingJSON(t, []byte(b), decodeAppend)
	}
}

// TestCodecDepthLimit: nesting is capped where encoding/json caps it.
func TestCodecDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		// The object itself is one level, so the skipped value nests
		// depth-1 arrays.
		body := `{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
		sameAsEncodingJSON(t, []byte(body), decodePredict)
	}
}

func FuzzPredictBody(f *testing.F) {
	for _, b := range predictBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameAsEncodingJSON(t, body, decodePredict)
	})
}

func FuzzAppendBody(f *testing.F) {
	for _, b := range appendBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameAsEncodingJSON(t, body, decodeAppend)
	})
}

// TestPredictAnswerMatchesEncodingJSON: the predict answer is byte for
// byte what json.NewEncoder(w).Encode(predictResponse{...}) writes.
func TestPredictAnswerMatchesEncodingJSON(t *testing.T) {
	preds := [][]float64{
		nil,
		{},
		{0, math.Copysign(0, -1), 1, -3, 42, 1e20, 123456789, 9007199254740993},
		{1e-7, 1e-6, 9.999999e-7, 1e21, 1e20 * 9.99, -1e21, 1e-300, 1.5e300},
		{5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, 2.225073858507201e-308},
		{0.1, 0.2 + 0.1, 1.0 / 3, -2.5e-8, math.MaxFloat64, -math.MaxFloat64, math.Pi},
	}
	ids := []string{
		"job-1", "<script>&amp;</script>", "h\u00e9llo", "\u65e5\u672c", "a\u2028b\u2029c",
		"\x00\x01\x1f\"\\\b\f\n\r\t\x7f", "bad\xffutf8\xed\xa0\x80", "",
	}
	for _, id := range ids {
		for _, p := range preds {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(predictResponse{Model: id, Predictions: p, Count: len(p)}); err != nil {
				t.Fatal(err)
			}
			got, err := appendPredictAnswer(nil, id, p)
			if err != nil {
				t.Fatalf("%q %v: %v", id, p, err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("model %q predictions %v:\ncodec         %s\nencoding/json %s", id, p, got, want.Bytes())
			}
		}
	}
}

func TestPredictAnswerNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := appendPredictAnswer(nil, "m", []float64{1, 2, bad, bad})
		if err == nil || !strings.Contains(err.Error(), "example 2") {
			t.Errorf("prediction %v: error %v, want one naming example 2", bad, err)
		}
	}
}

// benchPredictBody builds a predict body of n examples, dense with
// cols values each or sparse with cols (index, value) pairs.
func benchPredictBody(n, cols int, dense bool) []byte {
	req := predictRequest{Model: "job-1"}
	for i := 0; i < n; i++ {
		var ex exampleJSON
		for j := 0; j < cols; j++ {
			v := math.Sin(float64(i*cols+j)) * 3.7
			if dense {
				ex.Dense = append(ex.Dense, v)
			} else {
				ex.Indices = append(ex.Indices, int32(j*13))
				ex.Values = append(ex.Values, v)
			}
		}
		req.Examples = append(req.Examples, ex)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

var benchBodies = []struct {
	name string
	body []byte
}{
	{"dense1x91", benchPredictBody(1, 91, true)},
	{"sparse1x12", benchPredictBody(1, 12, false)},
	{"sparse64x12", benchPredictBody(64, 12, false)},
	{"dense64x91", benchPredictBody(64, 91, true)},
}

// BenchmarkPredictDecode times the codec against encoding/json on
// predict bodies shaped like the benchmark's.
func BenchmarkPredictDecode(b *testing.B) {
	for _, bb := range benchBodies {
		b.Run("codec/"+bb.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bb.body)))
			cb := getCodecBuf()
			for i := 0; i < b.N; i++ {
				var req predictRequest
				if err := cb.readBody(bytes.NewReader(bb.body), int64(len(bb.body))); err != nil {
					b.Fatal(err)
				}
				if err := cb.predict(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encoding_json/"+bb.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bb.body)))
			for i := 0; i < b.N; i++ {
				var req predictRequest
				if err := json.NewDecoder(bytes.NewReader(bb.body)).Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
