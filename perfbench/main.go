// Command perfbench is the repository's end-to-end benchmark. It runs
// the real server (serve.NewServer with dwserve's defaults) in its own
// process behind a loopback listener and drives it through the public
// HTTP API with one of two workloads:
//
//	train    closed loop: clients train to a target loss, one job at a time
//	predict  /v1/predict against trained models: one connection back to
//	         back, then open loop at fixed rates
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload predict --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer breakdown of a
// traced run. The line before it is the run record: the machine, the
// code, the workload and seed, and every metric under the name the
// workload gives it. The command exits 1 when an output check fails.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

var inf = math.Inf(1)

// windows is how many consecutive windows the train and predict
// timings in the run record are medians over.
const windows = 5

// quietWindows is how many consecutive windows the train workload's
// gated latency is the lower quartile over (see quietCenter).
const quietWindows = 12

// metricDef names a reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every workload reports with tracing off.
// The slots are shared so every workload fills each of them; what each
// slot holds on a workload is listed in its named metrics, which also
// carry the latencies and rates no slot gates.
//
// The box is a few vCPUs of a shared host: the hypervisor withholds
// them for milliseconds at a time, and other tenants' load comes in
// episodes. Job rates, open-loop latencies and closed-loop capacity
// (two connections back to back) moved by 25-35% from run to run of
// the same code, and CPU time per operation moved too, because the Go
// runtime fills idle CPUs with garbage collection work and spinning.
// The latency slot therefore holds the p50 of a closed loop, from
// which the parts that follow the host or chance more than the program
// are taken out:
//
//   - On train it is the time from submit to a published model divided
//     by the epochs the job ran. The epochs a job needs to reach its
//     target depend on how the Hogwild lanes interleaved, and their mean
//     over a run moved by up to 12% between runs of one seed; they are
//     reported on their own (the run record's epoch counts and
//     core.epochs_to_loss_p50.*). It is the lower quartile over windows
//     (see quietCenter): with a CPU hog over half of a run, the lower
//     quartile of the job p50 moved by 1% where the median over windows
//     moved by 15%. It is then scaled by the benchmark's own serial SGD
//     timed before and after the window (see calibrate).
//   - On predict it is the round trip of one connection sending back to
//     back, the median over windows, scaled by the round trip to a bare
//     endpoint measured beside it (see measure).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_s", "s"},
}

// perLayer lists the metrics of a traced run. A layer a workload does
// not exercise reports 0. The run record carries them too.
var perLayer = []metricDef{
	{"serve.predict.handler_p50_s", "s"},
	{"serve.predict.wire_p50_s", "s"},
	{"serve.predict.codec_p50_s", "s"},
	{"serve.registry.predict_p50_s", "s"},
	{"serve.registry.lookup_p50_s", "s"},
	{"model.score_p50_s", "s"},
	{"serve.predict.alloc_bytes_per_req", "B"},
	{"serve.job.queue_wait_p50_s", "s"},
	{"serve.job.overhead_p50_s", "s"},
	{"serve.job.notify_p50_s", "s"},
	{"serve.plancache.hit_ratio", "ratio"},
	{"tune.explore_frac", "ratio"},
	{"tune.measured_frac", "ratio"},
	{"core.plan_p50_s", "s"},
	{"core.epochs_to_loss_p50.svm", "count"},
	{"core.epochs_to_loss_p50.lr", "count"},
	{"core.epochs_to_loss_p50.ls", "count"},
	{"core.s_per_epoch_p50.svm", "s"},
	{"core.s_per_epoch_p50.lr", "s"},
	{"core.s_per_epoch_p50.ls", "s"},
	{"core.assign_s", "s"},
	{"core.step_s", "s"},
	{"core.flush_s", "s"},
	{"core.barrier_s", "s"},
	{"core.combine_s", "s"},
	{"core.loss_s", "s"},
	{"core.trace_coverage", "ratio"},
	{"data.append_p50_s", "s"},
	{"data.append_rows_per_s", "1/s"},
	{"ckpt.writes", "count"},
	{"ckpt.bytes_written", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"gen.late_p99_s", "s"},
	{"trace.self_time_share", "ratio"},
	{"trace.overhead_s", "s"},
}

// named is one metric under the name its workload gives it.
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Slot is the end-to-end metric that carries it, if any.
	Slot string `json:"slot,omitempty"`
	// N is the sample count behind a timing, P the percentile it
	// reports, and Windows the number of consecutive windows it is the
	// median over.
	N       int     `json:"n,omitempty"`
	P       float64 `json:"p,omitempty"`
	Windows int     `json:"windows,omitempty"`
}

// report is what one measured pass of a workload produced.
type report struct {
	attempted, failed int
	// problems lists the output checks that failed.
	problems []string
	named    []named
	// headline is the latency whose traced and untraced values give
	// the tracing overhead.
	headline float64
	layers   map[string]float64
	// behind is set when an open-loop generator, not the server, fell
	// behind its schedule; the run record then marks the run invalid.
	behind bool
	// detail is extra run-record material.
	detail map[string]any
}

func newReport() *report {
	return &report{layers: map[string]float64{}, detail: map[string]any{}}
}

// problem records a failed output check.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// timing adds a time-ordered latency sample's median (unless p50Name
// is empty) and its tail at want, or at the highest percentile the
// sample supports, each the median over k windows. The median fills
// p50Slot, if one is given.
func (r *report) timing(p50Name, tailName string, xs []float64, k int, want float64, p50Slot string) tail {
	t := summarizeWindows(xs, k, want)
	if p50Name != "" {
		r.named = append(r.named, named{Name: p50Name, Value: t.P50, Unit: "s", Slot: p50Slot, N: t.N, P: 50, Windows: k})
	}
	r.named = append(r.named, named{Name: tailName, Value: t.Tail, Unit: "s", N: t.N, P: t.P, Windows: k})
	return t
}

// instance is one set-up workload, ready to measure.
type instance interface {
	measure(ctx context.Context, d time.Duration, traced bool) (*report, error)
	close()
}

// workload describes one traffic mix.
type workload struct {
	name, why string
	setup     func(ctx context.Context, seed int64, rep int, traced bool) (instance, error)
	// setupReps is how many times a run sets the workload up; setup_s
	// is the median. The last set-up is the one measured. Every train
	// set-up keeps its streams in the process, so it sets up fewer times.
	setupReps int
}

var workloads = []workload{
	{"train", "closed loop of jobs to a target loss: core epochs do most of the work, per-job planning and publishing the rest, predict serving none", setupTrain, 3},
	{"predict", "predicts on trained models, one connection back to back and open loop at fixed rates: HTTP, JSON codec, registry and scorer do all the work, core none", setupPredict, 5},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: train or predict")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	secs := fs.Int("seconds", 20, "seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload train|predict, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	traced := *traceFlag == 1

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rec := machineRecord()
	rec["workload"], rec["why"], rec["seed"], rec["seconds"], rec["trace"] = w.name, w.why, *seed, *secs, traced

	cpu0 := readCPUTicks()
	res, rep, err := runWorkload(ctx, w, *seed, time.Duration(*secs)*time.Second, traced)
	rec["host_steal_share"] = stealShare(cpu0, readCPUTicks())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rec["valid"] = !rep.behind
	if rep.behind {
		fmt.Fprintln(os.Stderr, "perfbench: the load generator fell behind its schedule; this run is invalid")
	}
	rec["named"] = rep.named
	rec["layers"] = rep.layers
	rec["detail"] = rep.detail
	rec["problems"] = rep.problems
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload sets the workload up w.setupReps times and measures the
// last set-up. A traced run measures the second-to-last set-up with
// tracing off and the last with tracing on, each for half the time, so
// the difference is the tracing overhead.
func runWorkload(ctx context.Context, w *workload, seed int64, d time.Duration, traced bool) (result, *report, error) {
	window := d
	if traced {
		window = d / 2
	}
	var setups []float64
	var untraced, rep *report
	for r := 0; r < w.setupReps; r++ {
		last := r == w.setupReps-1
		t0 := time.Now()
		inst, err := w.setup(ctx, seed, r, traced && last)
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up %d: %w", r, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Set-up garbage is collected before the window, not inside it.
		runtime.GC()
		switch {
		case last:
			rep, err = inst.measure(ctx, window, traced)
		case traced && r == w.setupReps-2:
			untraced, err = inst.measure(ctx, window, false)
		}
		inst.close()
		if err != nil {
			return result{}, nil, err
		}
	}
	rep.detail["setup_s"] = setups
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	if untraced != nil {
		res.Attempted += untraced.attempted
		res.Failed += untraced.failed
		rep.problems = append(untraced.problems, rep.problems...)
		rep.layers["trace.overhead_s"] = rep.headline - untraced.headline
		rep.detail["untraced_named"] = untraced.named
		rep.behind = rep.behind || untraced.behind
	}
	res.Correct = len(rep.problems) == 0 && res.Failed == 0 && res.Attempted > 0
	if res.Attempted == 0 {
		rep.problems = append(rep.problems, "no operation was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	rep.named = append(rep.named,
		named{Name: "setup_s", Value: median(setups), Unit: "s", Slot: "setup_s", N: len(setups), P: 50},
		named{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", Slot: "peak_rss_mb"})
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: rep.layers[m.name], Unit: m.unit}
		}
		return res, rep, nil
	}
	for _, n := range rep.named {
		if n.Slot != "" {
			res.Metrics[n.Slot] = metricValue{Value: n.Value, Unit: n.Unit}
		}
	}
	for _, m := range endToEnd {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit {
			return result{}, nil, fmt.Errorf("workload %s fills end-to-end metric %s wrongly (%v)", w.name, m.name, v)
		}
	}
	return res, rep, nil
}

// peakRSSMB is the process's high-water resident set, from
// /proc/self/status; where that is missing it falls back to the memory
// the Go runtime obtained from the system.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// readCPUTicks reads the machine-wide CPU tick counters from
// /proc/stat (user, nice, system, idle, iowait, irq, softirq, steal);
// nil where the file is missing.
func readCPUTicks() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]float64, 8)
	for i := range out {
		out[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return out
}

// stealShare is the share of CPU time the hypervisor gave to other
// guests between two readings: on a shared host it explains runs that
// are slow for reasons outside the program.
func stealShare(a, b []float64) float64 {
	if a == nil || b == nil {
		return 0
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return (b[7] - a[7]) / total
}

// machineRecord describes the machine and the code a run measured.
func machineRecord() map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"host":          host,
		"git_commit":    gitCommit(),
		"source_sha256": sourceDigest(),
		"started":       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit names the checked-out commit, or "none" outside a git
// working tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources under the working directory, so a
// run names its code even where there is no git history.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
