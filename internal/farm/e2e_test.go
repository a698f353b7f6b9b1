package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/runner"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// e2eJobs is a miniature sweep of real simulations, small enough to run in
// a unit test but crossing three schemes like a real figure sweep would.
func e2eJobs() []runspec.Named {
	specs := []struct {
		key, scheme, bench string
	}{
		{"nonsecure/lbm", "nonsecure", "lbm"},
		{"itesp/mcf", "itesp", "mcf"},
		{"vault/lbm", "vault", "lbm"},
	}
	jobs := make([]runspec.Named, len(specs))
	for i, s := range specs {
		jobs[i] = runspec.Named{Key: s.key, Spec: runspec.Spec{
			Scheme: s.scheme, Benchmark: s.bench, Cores: 1, OpsPerCore: 2000, Seed: 7,
		}}
	}
	return jobs
}

// TestE2EFarmMatchesInProcess is the farm's acceptance test: the same sweep
// run through coordinator + worker + HTTP round trips produces summaries
// byte-identical to an in-process runner.Run, and a second coordinator over
// the same corpus serves the whole sweep from cache without any worker.
func TestE2EFarmMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	jobs := e2eJobs()
	ctx := context.Background()

	// Ground truth: the in-process path.
	runnerJobs := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		runnerJobs[i] = runner.Job{Key: j.Key, Spec: j.Spec}
	}
	direct, err := runner.Run(ctx, runner.Options{Parallel: 2}, runnerJobs)
	if err != nil {
		t.Fatal(err)
	}

	// The farm path: coordinator + one pull worker, full wire protocol.
	corpus := t.TempDir()
	co, err := NewCoordinator(Config{CacheDir: corpus, LeaseTTL: 30 * time.Second, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(co))
	defer srv.Close()
	cl := NewClient(srv.URL)

	workerCtx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	workerCache := t.TempDir()
	workerDone := make(chan struct{})
	var executed int
	var workErr error
	go func() {
		defer close(workerDone)
		executed, workErr = Work(workerCtx, WorkerOptions{
			Client:   NewClient(srv.URL),
			Name:     "e2e-worker",
			CacheDir: workerCache,
			PollWait: 200 * time.Millisecond,
			Logf:     t.Logf,
		})
	}()

	farmRes, err := cl.RunSweep(ctx, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	stopWorker()
	<-workerDone
	if workErr != nil {
		t.Fatalf("worker: %v", workErr)
	}
	if executed != len(jobs) {
		t.Fatalf("worker executed %d jobs, want %d", executed, len(jobs))
	}

	// Byte-identical summaries, job by job.
	for _, j := range jobs {
		want, err := json.Marshal(direct[j.Key])
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(farmRes[j.Key])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: farm summary differs from in-process run:\nfarm:   %s\ndirect: %s", j.Key, got, want)
		}
	}

	// The worker's local cache converged with the corpus: every executed
	// hash is resolvable on both sides.
	local := runner.NewCache(workerCache)
	shared := runner.NewCache(corpus)
	for _, j := range jobs {
		h, _ := j.Spec.Hash()
		if _, ok := local.Load(h); !ok {
			t.Fatalf("%s: missing from the worker's local cache", j.Key)
		}
		if _, ok := shared.Load(h); !ok {
			t.Fatalf("%s: missing from the coordinator corpus", j.Key)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh coordinator lifetime over the same corpus: the identical
	// sweep is fully cached at submit time — no worker, no dispatch.
	co2, err := NewCoordinator(Config{CacheDir: corpus})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(co2))
	defer srv2.Close()
	defer co2.Close()
	cl2 := NewClient(srv2.URL)
	sub, err := cl2.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cached != len(jobs) || sub.Pending != 0 {
		t.Fatalf("corpus re-submit: %+v", sub)
	}
	cachedRes, err := cl2.RunSweep(ctx, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		want, _ := json.Marshal(direct[j.Key])
		got, _ := json.Marshal(cachedRes[j.Key])
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: corpus-served summary differs from in-process run", j.Key)
		}
	}
}

// TestE2EWorkerCountInvariantHash: a spec recorded by a worker that still
// ran with the removed tick_workers execution knob — as an old corpus
// entry holds it, read leniently — hashes identically to
// the same spec without it, so results stay shared across worker builds:
// the cache-key invariance the protocol depends on.
func TestE2EWorkerCountInvariantHash(t *testing.T) {
	base := runspec.Spec{Scheme: "itesp", Benchmark: "mcf", Cores: 2, Channels: 2, OpsPerCore: 2000}
	var tuned runspec.Spec
	old := `{"scheme":"itesp","benchmark":"mcf","cores":2,"channels":2,"ops_per_core":2000,"tick_workers":4}`
	if err := json.Unmarshal([]byte(old), &tuned); err != nil {
		t.Fatal(err)
	}
	h1, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := tuned.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("tick_workers must not enter the content hash: %s vs %s", h1, h2)
	}
}

// TestWorkerCacheHoldsNoSweepJournals: a worker runs each lease as its own
// one-job runner sweep without a telemetry collector, so its local cache
// gains result entries but no per-lease sweep journal files.
func TestWorkerCacheHoldsNoSweepJournals(t *testing.T) {
	_, cl := testFarm(t, Config{})
	jobs := []runspec.Named{protoJob("a", 1), protoJob("b", 2), protoJob("c", 3)}
	if _, err := cl.Submit(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := Work(context.Background(), WorkerOptions{
		Client: cl, CacheDir: dir, PollWait: 50 * time.Millisecond, IdleExit: 100 * time.Millisecond,
	})
	if err != nil || n != len(jobs) {
		t.Fatalf("worker executed %d jobs (err %v), want %d", n, err, len(jobs))
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(entries) != len(jobs) {
		t.Fatalf("local cache entries: %v", entries)
	}
	if journals, _ := filepath.Glob(filepath.Join(dir, "sweep-*")); len(journals) != 0 {
		t.Fatalf("worker cache holds sweep journals: %v", journals)
	}
}

// simulate executes a leased spec exactly as a worker does.
func simulate(t *testing.T, l *api.Lease) *sim.Summary {
	t.Helper()
	res, err := runner.Run(context.Background(), runner.Options{Parallel: 1}, []runner.Job{{Key: l.Key, Spec: l.Spec}})
	if err != nil {
		t.Fatal(err)
	}
	return res[l.Key]
}

// TestCoordinatorRestartMidSweep: the corpus is the farm's only durable
// state. A coordinator killed mid-sweep — two jobs finished, one lease
// live — is replaced by an empty one over the same corpus behind the same
// address. RunSweep re-submits when its poll answers not_found, the
// finished jobs come back cached, the old lifetime's lease ID is
// lease_gone even though the new lifetime re-leases the same hash first,
// and the summaries match an in-process run byte for byte.
func TestCoordinatorRestartMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	jobs := append(e2eJobs(), runspec.Named{Key: "synergy/mcf", Spec: runspec.Spec{
		Scheme: "synergy", Benchmark: "mcf", Cores: 1, OpsPerCore: 2000, Seed: 7,
	}})
	ctx := context.Background()
	runnerJobs := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		runnerJobs[i] = runner.Job{Key: j.Key, Spec: j.Spec}
	}
	direct, err := runner.Run(ctx, runner.Options{Parallel: 2}, runnerJobs)
	if err != nil {
		t.Fatal(err)
	}

	// One address, two coordinator lifetimes: the handler is swapped
	// atomically, as a supervisor restarting simfarmd in place would.
	var front atomic.Pointer[http.Handler]
	serve := func(co *Coordinator) {
		h := Handler(co)
		front.Store(&h)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*front.Load()).ServeHTTP(w, r)
	}))
	defer srv.Close()
	copts := ClientOptions{PollInterval: 10 * time.Millisecond, PollMax: 50 * time.Millisecond}
	cl := NewClientOpts(srv.URL, copts)

	corpus := t.TempDir()
	cfg := Config{CacheDir: corpus, LeaseTTL: 30 * time.Second, Retries: 1}
	co1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serve(co1)

	type done struct {
		n      int
		key    string
		cached bool
	}
	var reports []done // written by RunSweep's goroutine, read after it returns
	type outcome struct {
		res map[string]*sim.Summary
		err error
	}
	swept := make(chan outcome, 1)
	go func() {
		res, err := NewClientOpts(srv.URL, copts).RunSweep(ctx, jobs, func(n, total int, key string, cached bool) {
			reports = append(reports, done{n, key, cached})
		})
		swept <- outcome{res, err}
	}()

	// First lifetime: the first lease stays live across the kill, the next
	// two finish.
	lease := func(want string) *api.Lease {
		t.Helper()
		l, err := cl.Lease(ctx, "w", 5*time.Second)
		if err != nil || l == nil || l.Key != want {
			t.Fatalf("lease: want %s, got %+v %v", want, l, err)
		}
		return l
	}
	orphan := lease(jobs[0].Key)
	for _, j := range jobs[1:3] {
		l := lease(j.Key)
		if _, err := cl.Complete(ctx, api.CompleteRequest{Lease: l.ID, Outcome: api.OutcomeOK, Summary: simulate(t, l)}); err != nil {
			t.Fatal(err)
		}
	}
	sweepID, err := runspec.SweepID(jobs)
	if err != nil {
		t.Fatal(err)
	}
	co1.Shutdown()
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second lifetime: empty until RunSweep's next poll re-submits.
	co2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	serve(co2)

	again := lease(jobs[0].Key) // long-polls until the re-submission lands
	if again.Attempt != 1 {
		t.Fatalf("attempts reset with the restart: got attempt %d", again.Attempt)
	}
	if err := cl.Heartbeat(ctx, orphan.ID); errCode(t, err) != api.CodeLeaseGone {
		t.Fatalf("old-lifetime heartbeat on a re-leased hash: %v", err)
	}
	_, err = cl.Complete(ctx, api.CompleteRequest{Lease: orphan.ID, Outcome: api.OutcomeOK, Summary: simulate(t, orphan)})
	if errCode(t, err) != api.CodeLeaseGone {
		t.Fatalf("old-lifetime complete: %v", err)
	}
	st, err := co2.Sweep(sweepID)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range st.Jobs {
		if finished := i == 1 || i == 2; finished != (row.State == api.StateCached) {
			t.Fatalf("after restart, job %s is %s: only the jobs finished before the kill come back cached", row.Key, row.State)
		}
	}
	if _, err := cl.Complete(ctx, api.CompleteRequest{Lease: again.ID, Outcome: api.OutcomeOK, Summary: simulate(t, again)}); err != nil {
		t.Fatal(err)
	}

	// A real worker finishes the rest.
	workerCtx, stopWorker := context.WithCancel(ctx)
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		Work(workerCtx, WorkerOptions{Client: cl, Name: "w2", PollWait: 200 * time.Millisecond})
	}()
	var out outcome
	select {
	case out = <-swept:
	case <-time.After(2 * time.Minute):
		t.Fatal("RunSweep did not finish after the restart")
	}
	stopWorker()
	<-workerDone
	if out.err != nil {
		t.Fatalf("RunSweep across the restart: %v", out.err)
	}
	for _, j := range jobs {
		want, _ := json.Marshal(direct[j.Key])
		got, _ := json.Marshal(out.res[j.Key])
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: summary across the restart differs from in-process:\nfarm:   %s\ndirect: %s", j.Key, got, want)
		}
	}
	// onDone stays monotonic and reports each key once across lifetimes.
	seen := map[string]bool{}
	for i, r := range reports {
		if r.n != i+1 || seen[r.key] {
			t.Fatalf("onDone reports: %+v", reports)
		}
		seen[r.key] = true
	}
	if len(reports) != len(jobs) {
		t.Fatalf("onDone reported %d keys, want %d: %+v", len(reports), len(jobs), reports)
	}
}
