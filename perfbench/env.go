package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/serve"
	"dimmwitted/internal/tune"
)

// env is one server under test: serve.NewServer with dwserve's
// defaults, behind a loopback listener, and the client that drives it.
type env struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	// tap times the server's handlers; nil when tracing is off.
	tap *tap
	// store is the durable state directory, or "" for memory only.
	store string
}

// clientConns bounds the client's connections (and the load
// generators' goroutines) to the CPUs the box has.
var clientConns = max(1, min(2, runtime.NumCPU()))

// newEnv starts a server. With store set it persists models, job
// checkpoints (every five epochs) and learned plan costs there, as
// dwserve -store does.
func newEnv(traced bool, store string) (*env, error) {
	opts := serve.Options{
		Machine:  numa.Local2,
		Feedback: tune.NewStore(tune.Options{}),
	}
	if store != "" {
		jobs, models, tuner, err := serve.OpenStores(store)
		if err != nil {
			return nil, err
		}
		opts.Checkpoints, opts.Models, opts.CheckpointEvery = jobs, models, 5
		if err := opts.Feedback.Persist(tuner); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{
		srv:    serve.NewServer(opts),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		store:  store,
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
			DisableCompression:  true,
		}},
	}
	var h http.Handler = e.srv
	if traced {
		e.tap = &tap{next: e.srv, spans: map[int64]handlerSpan{}}
		h = e.tap
	}
	e.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the listener, the server's jobs and the client, and
// removes the store.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		_ = e.hs.Close()
	}
	<-e.served
	e.srv.Close()
	e.client.CloseIdleConnections()
	if e.store != "" {
		_ = os.RemoveAll(e.store)
	}
}

// reqIDHeader carries the client's request number to the tap, so a
// handler span can be matched with the client's round trip.
const reqIDHeader = "X-Bench-Req"

// handlerSpan is one handler invocation as the tap saw it.
type handlerSpan struct {
	start, end time.Time
}

// tap wraps Server.ServeHTTP and records when each numbered request's
// handler ran.
type tap struct {
	next  http.Handler
	mu    sync.Mutex
	spans map[int64]handlerSpan
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	end := time.Now()
	if id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64); err == nil {
		t.mu.Lock()
		t.spans[id] = handlerSpan{start, end}
		t.mu.Unlock()
	}
}

// handler returns the handler span of request id, if the tap saw it.
func (t *tap) handler(id int64) (handlerSpan, bool) {
	if t == nil {
		return handlerSpan{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.spans[id]
	return s, ok
}

// reqSeq numbers client requests for the tap.
var reqSeq atomic.Int64

// call is one HTTP round trip: the request's number and the answer.
type call struct {
	id   int64
	body []byte
}

// do sends one request and reads the whole response.
func (e *env) do(ctx context.Context, method, path string, body []byte) (call, error) {
	c := call{id: reqSeq.Add(1)}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.base+path, rd)
	if err != nil {
		return c, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqIDHeader, strconv.FormatInt(c.id, 10))
	resp, err := e.client.Do(req)
	if err != nil {
		return c, err
	}
	c.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return c, err
	}
	if resp.StatusCode/100 != 2 {
		return c, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(c.body))
	}
	return c, nil
}

// doJSON sends one request and decodes the JSON answer into out.
func (e *env) doJSON(ctx context.Context, method, path string, body []byte, out any) (call, error) {
	c, err := e.do(ctx, method, path, body)
	if err != nil {
		return c, err
	}
	if out != nil {
		if err := json.Unmarshal(c.body, out); err != nil {
			return c, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return c, nil
}

// upload appends rows [lo, hi) of ds to a stream, chunk rows per
// request, encoding each request just before it is sent, and returns
// the last acknowledged version. create makes the first request name
// the stream's shape.
func (e *env) upload(ctx context.Context, stream string, ds *data.Dataset, lo, hi, chunk int, dense, create bool) (uint64, error) {
	var ack struct {
		Version uint64 `json:"version"`
	}
	for a := lo; a < hi; a += chunk {
		body, err := appendChunk(ds, a, min(a+chunk, hi), dense, create && a == lo)
		if err != nil {
			return 0, err
		}
		if _, err := e.doJSON(ctx, http.MethodPost, "/v1/datasets/"+stream+"/append", body, &ack); err != nil {
			return 0, err
		}
	}
	return ack.Version, nil
}

// train submits a job and returns its id.
func (e *env) train(ctx context.Context, req serve.TrainRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	var ack struct {
		JobID string `json:"job_id"`
	}
	_, err = e.doJSON(ctx, http.MethodPost, "/v1/train", body, &ack)
	return ack.JobID, err
}

// wait blocks until a job ends, by the scheduler's completion channel
// rather than by polling, and returns when the client saw it.
func (e *env) wait(ctx context.Context, id string) (time.Time, error) {
	done, ok := e.srv.Scheduler().Done(id)
	if !ok {
		return time.Time{}, fmt.Errorf("unknown job %q", id)
	}
	select {
	case <-done:
		return time.Now(), nil
	case <-ctx.Done():
		return time.Time{}, fmt.Errorf("job %s: %w", id, ctx.Err())
	}
}

// status fetches a job's status over HTTP.
func (e *env) status(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	_, err := e.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// trainAndWait runs one job to the end and checks that it published.
func (e *env) trainAndWait(ctx context.Context, req serve.TrainRequest) (string, error) {
	id, err := e.train(ctx, req)
	if err != nil {
		return "", err
	}
	if _, err := e.wait(ctx, id); err != nil {
		return "", err
	}
	st, err := e.status(ctx, id)
	if err != nil {
		return "", err
	}
	if st.State != "done" {
		return "", fmt.Errorf("job %s (%s on %s) ended %s: %s", id, req.Model, req.Dataset, st.State, st.Error)
	}
	return id, nil
}

// storeDir makes a fresh store directory inside the working directory.
func storeDir(label string) (string, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, label+"-")
}

// serveStats is the part of /v1/stats the benchmark reads.
type serveStats struct {
	PlanCache serve.PlanCacheStats `json:"plan_cache"`
}

func (e *env) stats(ctx context.Context) (serveStats, error) {
	var s serveStats
	_, err := e.doJSON(ctx, http.MethodGet, "/v1/stats", nil, &s)
	return s, err
}

// predictChecked sends one predict request and checks every answer
// bitwise against model.PredictBatch on the registry's snapshot.
func (e *env) predictChecked(ctx context.Context, pc predictCall) (call, error) {
	var resp struct {
		Predictions []float64 `json:"predictions"`
	}
	c, err := e.doJSON(ctx, http.MethodPost, "/v1/predict", pc.body, &resp)
	if err != nil {
		return c, err
	}
	spec, snap, ok := e.srv.Scheduler().Models().Get(pc.model)
	if !ok || spec == nil {
		return c, fmt.Errorf("model %s is not in the registry", pc.model)
	}
	want, err := model.PredictBatch(spec, snap.X, pc.examples)
	if err != nil {
		return c, err
	}
	if err := sameBits(resp.Predictions, want); err != nil {
		return c, fmt.Errorf("model %s: %w", pc.model, err)
	}
	return c, nil
}

// sameBits reports the first answer that differs bitwise.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d predictions, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("prediction %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// runtimeLayers fills the Go runtime's metrics over a measured window.
func runtimeLayers(r *report, ms0, ms1 *runtime.MemStats) {
	r.layers["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	r.layers["runtime.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
}

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
