package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/serve"
	"dimmwitted/internal/trace"
)

// trainTask is one job kind of the train mix. Its target loss is
// (1+slack) times the loss the benchmark's own reference reaches on the
// task's dataset (see reference.go), and every job must reach it
// within cap epochs.
type trainTask struct {
	model string
	dense bool
	slack float64
	cap   int
}

// trainTasks is the job mix the train clients cycle through: svm and lr
// on the sparse datasets, ls on the dense one. The parallel engine
// reaches the svm and lr targets in three to six epochs, where the loss
// still falls steeply. Least squares on the overdetermined dense set is
// within a few percent of the reference after one pass and creeps down
// slowly after that, so any tighter target would make its epoch count
// a lottery; its jobs run one epoch or two, and planning is a visible
// share of them.
var trainTasks = []trainTask{
	{model: "svm", slack: 0.1, cap: 60},
	{model: "lr", slack: 0.1, cap: 60},
	{model: "ls", dense: true, slack: 0.2, cap: 60},
}

// warmEpochs is the length of the warm-up job set-up runs per task and
// dataset. The warm-up jobs fill the plan cache and the cost store as a server that
// has been up for a while would have them.
const warmEpochs = 3

// sparseSets is how many sparse datasets the train mix spreads its svm
// and lr jobs over. The epochs a job needs depend on its dataset, and
// spreading the jobs over several keeps a run's job times from
// following one dataset's luck.
const sparseSets = 8

// uploadChunk is the rows per append request when set-up uploads a
// sparse dataset.
const uploadChunk = 1000

// trainData is sparse datasets and a dense one, uploaded as streams.
type trainData struct {
	sparse      []*data.Dataset
	sparseNames []string
	dense       *data.Dataset
	denseName   string
}

// uploadTrainData generates sets sparse datasets and a dense one of
// denseRows rows from the seed, and appends them to fresh streams.
func uploadTrainData(ctx context.Context, e *env, seed int64, prefix string, rep, sets, denseRows int) (trainData, error) {
	td := trainData{
		dense:     denseDataset(seed, "dense", denseRows),
		denseName: fmt.Sprintf("%s%d-dense", prefix, rep),
	}
	for s := 0; s < sets; s++ {
		ds := sparseDataset(seed, fmt.Sprintf("sparse-%d", s), sparseRows)
		name := fmt.Sprintf("%s%d-sparse-%d", prefix, rep, s)
		if _, err := e.upload(ctx, name, ds, 0, sparseRows, uploadChunk, false, true); err != nil {
			return td, err
		}
		td.sparse, td.sparseNames = append(td.sparse, ds), append(td.sparseNames, name)
	}
	_, err := e.upload(ctx, td.denseName, td.dense, 0, td.dense.Rows(), 500, true, true)
	return td, err
}

// of names the stream and dataset task t trains on as set number set;
// the dense tasks have one set.
func (td trainData) of(t trainTask, set int) (string, *data.Dataset) {
	if t.dense {
		return td.denseName, td.dense
	}
	return td.sparseNames[set%len(td.sparse)], td.sparse[set%len(td.sparse)]
}

// request is a parallel job of task t on set that stops at target (0
// runs all epochs), with the optimizer choosing the plan.
func (td trainData) request(t trainTask, set int, target float64, epochs int, seed int64, traced bool) serve.TrainRequest {
	name, _ := td.of(t, set)
	return serve.TrainRequest{
		Model: t.model, Dataset: name, Executor: "parallel",
		TargetLoss: target, MaxEpochs: epochs, Seed: seed, Trace: traced,
	}
}

type trainInst struct {
	e    *env
	seed int64
	td   trainData
	// targets holds each task's target loss on each set.
	targets [][]float64
}

func setupTrain(ctx context.Context, seed int64, rep int, traced bool) (instance, error) {
	// Like dwserve -store: published models and job checkpoints are
	// written through to a durable store.
	dir, err := storeDir("train")
	if err != nil {
		return nil, err
	}
	e, err := newEnv(traced, dir)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	t := &trainInst{e: e, seed: seed}
	if err := t.warmUp(ctx, rep, traced); err != nil {
		e.close()
		return nil, err
	}
	return t, nil
}

// warmUp uploads the datasets, fixes each task's target on each set
// and runs one warm-up job per task and dataset.
func (t *trainInst) warmUp(ctx context.Context, rep int, traced bool) error {
	var err error
	if t.td, err = uploadTrainData(ctx, t.e, t.seed, "train", rep, sparseSets, denseRows); err != nil {
		return err
	}
	t.targets = make([][]float64, len(trainTasks))
	for i, tk := range trainTasks {
		for s := 0; s < sparseSets; s++ {
			if tk.dense && s > 0 {
				t.targets[i] = append(t.targets[i], t.targets[i][0])
				continue
			}
			_, ds := t.td.of(tk, s)
			ref, err := referenceLoss(tk.model, ds)
			if err != nil {
				return err
			}
			t.targets[i] = append(t.targets[i], (1+tk.slack)*ref)
			req := t.td.request(tk, s, 0, warmEpochs, jobSeed(t.seed, 99, i*sparseSets+s), traced)
			if _, err := t.e.trainAndWait(ctx, req); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *trainInst) close() { t.e.close() }

// trainJob is one job as a client saw it.
type trainJob struct {
	task    int
	id      string
	submit  time.Time
	seen    time.Time
	confirm time.Duration
	st      serve.JobStatus
	err     error
}

func (j trainJob) latency() float64 {
	if j.err != nil {
		return inf
	}
	return j.seen.Sub(j.submit).Seconds()
}

// measure runs the closed loop: each client submits its next job only
// once the previous model is published and confirmed.
func (t *trainInst) measure(ctx context.Context, d time.Duration, traced bool) (*report, error) {
	r := newReport()
	statsBefore, err := t.e.stats(ctx)
	if err != nil {
		return nil, err
	}
	cal := t.calibrate()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(d)
	jobs := make([][]trainJob, clientConns)
	var wg sync.WaitGroup
	for c := range jobs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				// Both clients walk the same cycle of tasks, each task on the
				// sets in turn, one job apart.
				i := c + k
				jobs[c] = append(jobs[c], t.runJob(ctx, i%len(trainTasks), i/len(trainTasks)%sparseSets, jobSeed(t.seed, c, k), traced))
			}
		}(c)
	}
	wg.Wait()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	cal = append(cal, t.calibrate()...)
	statsAfter, err := t.e.stats(ctx)
	if err != nil {
		return nil, err
	}

	var all []trainJob
	for _, js := range jobs {
		all = append(all, js...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].submit.Before(all[b].submit) })
	var lat, perEpoch, confirm []float64
	finished := 0
	for _, j := range all {
		r.attempted++
		if j.err != nil {
			r.failed++
			r.problem("job %s (%s): %v", j.id, trainTasks[j.task].model, j.err)
		} else if !j.seen.After(deadline) {
			finished++
		}
		lat = append(lat, j.latency())
		perEpoch = append(perEpoch, j.latency()/float64(max(1, j.st.Epoch)))
		if j.err == nil {
			confirm = append(confirm, j.confirm.Seconds())
		} else {
			confirm = append(confirm, inf)
		}
	}
	quiet := quietCenter(perEpoch, quietWindows)
	scaled := quiet * calNominal / median(cal)
	r.named = append(r.named,
		named{Name: "train.job_per_epoch_scaled_p50_s", Value: scaled, Unit: "s", Slot: "latency_s", N: len(perEpoch), P: 50, Windows: quietWindows},
		named{Name: "train.job_per_epoch_p50_s", Value: quiet, Unit: "s", N: len(perEpoch), P: 50, Windows: quietWindows},
		named{Name: "train.calibration_s", Value: median(cal), Unit: "s", N: len(cal), P: 50},
		named{Name: "train.cpu_s_per_job", Value: (cpu1 - cpu0) / float64(max(1, len(all)-r.failed)), Unit: "s", N: len(all) - r.failed},
		named{Name: "train.jobs_per_s", Value: float64(finished) / d.Seconds(), Unit: "1/s", N: finished})
	r.timing("train.job_p50_s", "train.job_p95_s", lat, windows, 95, "")
	r.timing("", "train.confirm_p95_s", confirm, windows, 95, "")
	r.headline = scaled
	r.detail["jobs_per_client"] = []int{len(jobs[0]), len(jobs[len(jobs)-1])}
	r.detail["clients"] = clientConns
	r.detail["targets"] = t.targets
	r.detail["epochs"] = epochCounts(all)
	r.detail["plans"] = planCounts(all)
	runtimeLayers(r, &ms0, &ms1)
	if traced {
		t.layers(r, all, statsBefore, statsAfter)
	}
	return r, nil
}

// calNominal is the calibration time the train latency is scaled to,
// about what calibrate takes on a 2-vCPU box, and calReps how many
// times calibrate times it.
const (
	calNominal = 0.016 // seconds
	calReps    = 7
)

// calibrate times the benchmark's own serial SGD (see reference.go)
// over a sparse set, one copy per client at once, calReps times, and
// returns the wall times. The speed of a shared box drifts by 20% over
// minutes, and the train latency drifted with it from one run to the
// next; measured before and after the window, this work moves with the
// box and not with the program, so the gated latency is scaled by it.
func (t *trainInst) calibrate() []float64 {
	var out []float64
	for k := 0; k < calReps; k++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clientConns; c++ {
			wg.Add(1)
			go func(ds *data.Dataset) {
				defer wg.Done()
				_, _ = referenceLoss("lr", ds)
			}(t.td.sparse[c%len(t.td.sparse)])
		}
		wg.Wait()
		out = append(out, time.Since(t0).Seconds())
	}
	return out
}

// runJob submits one job, waits for its model to be published, then
// confirms it with one status read and one predict.
func (t *trainInst) runJob(ctx context.Context, task, set int, seed int64, traced bool) trainJob {
	tk := trainTasks[task]
	target := t.targets[task][set]
	j := trainJob{task: task, submit: time.Now()}
	j.id, j.err = t.e.train(ctx, t.td.request(tk, set, target, tk.cap, seed, traced))
	if j.err != nil {
		return j
	}
	if j.seen, j.err = t.e.wait(ctx, j.id); j.err != nil {
		return j
	}
	c0 := time.Now()
	if j.st, j.err = t.e.status(ctx, j.id); j.err != nil {
		return j
	}
	switch {
	case j.st.State != "done":
		j.err = fmt.Errorf("ended %s: %s", j.st.State, j.st.Error)
		return j
	case !j.st.Converged || j.st.Epoch > tk.cap:
		j.err = fmt.Errorf("missed target %g: loss %g after %d of %d epochs", target, j.st.Loss, j.st.Epoch, tk.cap)
		return j
	}
	_, ds := t.td.of(tk, set)
	pc, err := buildPredictCall(j.id, ds, []int{int(seed % int64(ds.Rows()))}, tk.dense)
	if err != nil {
		j.err = err
		return j
	}
	if _, j.err = t.e.predictChecked(ctx, pc); j.err != nil {
		return j
	}
	j.confirm = time.Since(c0)
	return j
}

// layers fills the per-layer metrics of a traced train pass.
func (t *trainInst) layers(r *report, all []trainJob, before, after serveStats) {
	var queue, overhead, notify []float64
	epochs := map[string][]float64{}
	perEpoch := map[string][]float64{}
	sources := map[string]int{}
	var phase = map[string]float64{}
	var totalEpochs, covNum, covDen float64
	acct := newAccounting("client")
	ok := 0
	for _, j := range all {
		if j.err != nil {
			continue
		}
		ok++
		st := j.st
		queue = append(queue, st.Started.Sub(st.Enqueued).Seconds())
		overhead = append(overhead, st.Finished.Sub(st.Started).Seconds()-st.WallSeconds)
		notify = append(notify, j.seen.Sub(st.Finished).Seconds())
		m := trainTasks[j.task].model
		epochs[m] = append(epochs[m], float64(st.Epoch))
		perEpoch[m] = append(perEpoch[m], st.ObservedSecondsPerEpoch)
		sources[st.PlanSource]++
		if s := st.Trace; s != nil {
			totalEpochs += float64(s.Epochs)
			covNum += s.Coverage * s.EpochSeconds
			covDen += s.EpochSeconds
			phase["step"] += s.StepSeconds
			phase["barrier"] += s.BarrierSeconds
			for _, p := range s.Phases {
				phase[p.Phase] += p.Seconds
			}
		}
		acct.add(t.jobSpans(j))
	}
	r.layers["serve.job.queue_wait_p50_s"] = median(queue)
	r.layers["serve.job.overhead_p50_s"] = median(overhead)
	r.layers["serve.job.notify_p50_s"] = median(notify)
	for _, tk := range trainTasks {
		r.layers["core.epochs_to_loss_p50."+tk.model] = median(epochs[tk.model])
		r.layers["core.s_per_epoch_p50."+tk.model] = median(perEpoch[tk.model])
	}
	if ok > 0 {
		r.layers["tune.explore_frac"] = float64(sources["explore"]) / float64(ok)
		r.layers["tune.measured_frac"] = float64(sources["measured"]) / float64(ok)
	}
	r.detail["plan_sources"] = sources
	if totalEpochs > 0 {
		for _, p := range []string{"assign", "step", "flush", "barrier", "combine", "loss"} {
			r.layers["core."+p+"_s"] = phase[p] / totalEpochs
		}
	}
	if covDen > 0 {
		r.layers["core.trace_coverage"] = covNum / covDen
	}
	hits := after.PlanCache.Hits - before.PlanCache.Hits
	misses := after.PlanCache.Misses - before.PlanCache.Misses
	if hits+misses > 0 {
		r.layers["serve.plancache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	r.layers["core.plan_p50_s"] = t.replayPlanning()
	r.layers["ckpt.writes"], r.layers["ckpt.bytes_written"] = scanStore(t.e.store)
	var chunks [][]data.Row
	for a := 0; a < sparseRows; a += uploadChunk {
		chunks = append(chunks, toRows(chunkRows(t.td.sparse[0], a, min(a+uploadChunk, sparseRows), false)))
	}
	r.layers["data.append_p50_s"], r.layers["data.append_rows_per_s"] = timeAppends(data.NewStream("replay", sparseCols, data.Classification), chunks)
	r.layers["trace.self_time_share"] = acct.coverage()
	r.detail["self_time_shares"] = acct.shares()
}

// jobSpans lays one job out as a span tree: the client's wait from
// submit to publication, split by the server's timestamps into the
// HTTP submit, the queue, the job run and the completion notice, with
// the engine's epoch spans inside the run.
func (t *trainInst) jobSpans(j trainJob) []span {
	st := j.st
	spans := []span{
		{layer: "client", start: j.submit, end: j.seen, parent: -1},
		{layer: "serve.http", start: j.submit, end: st.Enqueued, parent: 0},
		{layer: "serve.queue", start: st.Enqueued, end: st.Started, parent: 0},
		{layer: "serve.job", start: st.Started, end: st.Finished, parent: 0},
		{layer: "serve.notify", start: st.Finished, end: j.seen, parent: 0},
	}
	if rec, ok := t.e.srv.Scheduler().TraceRecorder(j.id); ok && rec != nil {
		origin := rec.Origin()
		for _, s := range rec.Spans() {
			if s.Phase == trace.PhaseEpoch {
				a := origin.Add(time.Duration(s.Start))
				spans = append(spans, span{layer: "core", start: a, end: a.Add(time.Duration(s.Dur)), parent: 3})
			}
		}
	}
	return spans
}

// replayPlanning times core.ChoosePlanModel, the optimizer the
// scheduler runs per job, on each task's dataset.
func (t *trainInst) replayPlanning() float64 {
	var xs []float64
	for _, tk := range trainTasks {
		name, _ := t.td.of(tk, 0)
		ds, err := data.ByName(name)
		if err != nil {
			continue
		}
		spec, err := model.ByName(tk.model)
		if err != nil {
			continue
		}
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			_, err := core.ChoosePlanModel(core.NewGLM(spec, ds), numa.Local2, core.ExecParallel, nil)
			if err == nil {
				xs = append(xs, time.Since(t0).Seconds())
			}
		}
	}
	return median(xs)
}

// epochCounts counts, per task, how many jobs stopped after each number
// of epochs: the spread of statistical efficiency across jobs.
func epochCounts(all []trainJob) map[string]map[int]int {
	out := map[string]map[int]int{}
	for _, j := range all {
		if j.err != nil {
			continue
		}
		m := trainTasks[j.task].model
		if out[m] == nil {
			out[m] = map[int]int{}
		}
		out[m][j.st.Epoch]++
	}
	return out
}

// planCounts counts, per task, how many jobs ran each plan the
// optimizer chose.
func planCounts(all []trainJob) map[string]map[string]int {
	out := map[string]map[string]int{}
	for _, j := range all {
		if j.err != nil {
			continue
		}
		m := trainTasks[j.task].model
		if out[m] == nil {
			out[m] = map[string]int{}
		}
		out[m][j.st.Plan]++
	}
	return out
}

// timeAppends appends each chunk to h and returns the median time of
// one append and the rows appended per second.
func timeAppends(h *data.Handle, chunks [][]data.Row) (p50, rowsPerS float64) {
	var xs []float64
	var total time.Duration
	rows := 0
	for _, chunk := range chunks {
		t0 := time.Now()
		if _, err := h.Append(chunk); err != nil {
			return 0, 0
		}
		dt := time.Since(t0)
		xs = append(xs, dt.Seconds())
		total += dt
		rows += len(chunk)
	}
	if total <= 0 {
		return 0, 0
	}
	return median(xs), float64(rows) / total.Seconds()
}

// scanStore counts the checkpoint writes under a store directory. A
// store names each write <id>.<generation>.ckpt with generations
// counting up from one and keeps only the newest few, so the highest
// generation of an id is its write count, and its retained files give
// the size of a write.
func scanStore(dir string) (writes, bytes float64) {
	type idStat struct {
		maxGen       uint64
		files, bytes int64
	}
	ids := map[string]*idStat{}
	_ = filepath.WalkDir(dir, func(p string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(p, ".ckpt") {
			return nil
		}
		base := strings.TrimSuffix(de.Name(), ".ckpt")
		dot := strings.LastIndexByte(base, '.')
		if dot < 0 {
			return nil
		}
		gen, err := strconv.ParseUint(base[dot+1:], 16, 64)
		if err != nil {
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil
		}
		key := filepath.Join(filepath.Dir(p), base[:dot])
		s := ids[key]
		if s == nil {
			s = &idStat{}
			ids[key] = s
		}
		s.maxGen = max(s.maxGen, gen)
		s.files++
		s.bytes += info.Size()
		return nil
	})
	for _, s := range ids {
		writes += float64(s.maxGen)
		bytes += float64(s.maxGen) * float64(s.bytes) / float64(s.files)
	}
	return writes, bytes
}
