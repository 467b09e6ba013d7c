package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"bgpsim/internal/jobspec"
	"bgpsim/internal/runner"
	"bgpsim/internal/server"
)

// Serve workload settings. The offered rates are fixed, so a faster
// daemon shows as lower latency at baseRPS and a higher max_rps.
const (
	// baseRPS is the fixed rate of the latency window, about a fifth of
	// max_rps on a 2-CPU host. Most requests then find a free connection
	// and both daemon workers rarely busy, so the window measures
	// service latency rather than the host's momentary speed. Nearer
	// max_rps most requests queue behind a miss for one of the two
	// connections, and on a shared host p50 moved several-fold between
	// runs.
	baseRPS = 50.0
	// minWindow fixed-rate requests support p99 with at least ten
	// samples beyond it.
	minWindow = 1100
	// satN requests offered at satRPS, well above what the daemon can
	// serve, measure max_rps: the rate at which it completes requests
	// while its backlog never empties.
	satN   = 800
	satRPS = 1000.0
	// cacheEntries is the daemon's default result-cache size; set-up
	// prefills it with the most popular specs.
	cacheEntries = 64
	// burstN wait=0 submissions of fresh specs overrun the daemon's
	// 2 workers and 8 queue slots, so its joins and rejections run.
	burstN = 24
	// warmSpec is the request every daemon start answers before set-up
	// counts as done; it is not in the pool.
	warmSpec = `{"kind":"bench","bench":"pingpong","ranks":2}`
)

// daemon is one running bgpsimd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon launches bgpsimd on a free loopback port with its default
// configuration and waits until /v1/healthz answers and one job has run.
func startDaemon(bin, dir string, client *http.Client) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no bgpsimd binary given (-bgpsimd)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", os.Getpid()))
	os.Remove(addrFile)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			d.base = "http://" + strings.TrimSpace(string(b))
			if status, _, _, err := readResp(client.Get(d.base + "/v1/healthz")); err == nil && status == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("bgpsimd did not answer /v1/healthz within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	status, _, _, err := readResp(client.Post(d.base+"/v1/jobs", "application/json", strings.NewReader(warmSpec)))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("first job: %w", err)
	}
	return d, nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// stop drains the daemon with SIGTERM, requires a clean exit and
// returns its peak resident set in MiB and the CPU time it used.
func (d *daemon) stop() (rssMiB float64, cpu time.Duration, err error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return 0, 0, fmt.Errorf("bgpsimd exit: %w", err)
		}
	case <-time.After(60 * time.Second):
		d.kill()
		<-done
		return 0, 0, errors.New("bgpsimd did not drain within 60s")
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0, errors.New("no rusage for bgpsimd")
	}
	return float64(ru.Maxrss) / 1024, time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func (d *daemon) stats(client *http.Client) (server.Stats, error) {
	var st server.Stats
	status, _, body, err := readResp(client.Get(d.base + "/v1/stats"))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/v1/stats: status %d", status)
	}
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// Request outcomes, from the X-Bgpsimd-Cache header or the status.
const (
	outHit = iota
	outMiss
	outJoin
	outRejected
	outError
)

// request is one generated request and what became of it.
type request struct {
	spec    int
	lat     latency
	outcome int
	body    []byte // the 200 body, for the output checks
	err     string // why a failed request failed
}

// failed reports whether the request counts as a failed operation: a
// rejection or an error.
func (q *request) failed() bool { return q.outcome == outRejected || q.outcome == outError }

// phaseResult is one open-loop phase.
type phaseResult struct {
	reqs    []*request
	start   time.Time // when the phase's first request was due
	end     time.Time // when its last answer arrived
	backlog int       // requests unanswered at the last due time
}

// latenciesMs returns the phase's due-time latencies in ms. A failed
// request counts as +Inf: it misses any latency limit.
func (p *phaseResult) latenciesMs(keep func(*request) bool) []float64 {
	var out []float64
	for _, q := range p.reqs {
		if keep != nil && !keep(q) {
			continue
		}
		if q.failed() {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(q.lat.fromDue())/float64(time.Millisecond))
	}
	return out
}

// loadgen drives the daemon open-loop over at most nproc connections.
type loadgen struct {
	d      *daemon
	client *http.Client
	bodies [][]byte
	tr     *tracer
	conns  int
}

// runPhase sends the arrivals on schedule and returns once every
// request is answered. A dispatcher releases each request when it is
// due; nproc senders each hold one connection and post blocking
// submissions, so a request due while both connections are busy waits
// in the generator, and that wait counts in its latency.
func (g *loadgen) runPhase(arrivals []arrival, run int) *phaseResult {
	res := &phaseResult{reqs: make([]*request, len(arrivals))}
	ready := make(chan *request, len(arrivals)) // sized to every send
	var answered sync.WaitGroup
	var mu sync.Mutex
	open := 0 // requests released but not answered
	for w := 0; w < g.conns; w++ {
		answered.Add(1)
		go func() {
			defer answered.Done()
			for q := range ready {
				g.submit(q, run)
				mu.Lock()
				open--
				mu.Unlock()
			}
		}()
	}
	res.start = time.Now().Add(5 * time.Millisecond)
	for i, a := range arrivals {
		q := &request{spec: a.spec, lat: latency{due: res.start.Add(a.due)}}
		res.reqs[i] = q
		time.Sleep(time.Until(q.lat.due))
		q.lat.sent = time.Now()
		mu.Lock()
		open++
		mu.Unlock()
		ready <- q
	}
	mu.Lock()
	res.backlog = open
	mu.Unlock()
	close(ready)
	answered.Wait()
	for _, q := range res.reqs {
		if q.lat.done.After(res.end) {
			res.end = q.lat.done
		}
	}
	return res
}

// submit posts one request and waits for its result document.
func (g *loadgen) submit(q *request, run int) {
	sp := g.tr.begin("POST /v1/jobs", 0, run)
	status, src, body, err := readResp(g.client.Post(g.d.base+"/v1/jobs", "application/json", bytes.NewReader(g.bodies[q.spec])))
	g.tr.end(sp)
	q.lat.done = time.Now()
	switch {
	case err != nil:
		q.outcome, q.err = outError, err.Error()
	case status == http.StatusOK && src == "hit":
		q.outcome, q.body = outHit, body
	case status == http.StatusOK && src == "miss":
		q.outcome, q.body = outMiss, body
	case status == http.StatusOK && src == "join":
		q.outcome, q.body = outJoin, body
	case status == http.StatusTooManyRequests:
		q.outcome = outRejected
	default:
		q.outcome, q.err = outError, fmt.Sprintf("status %d, cache %q", status, src)
	}
}

// prefill submits the pool's most popular specs closed-loop, so the
// timed phases start from a warm cache.
func (g *loadgen) prefill(n int) []*request {
	reqs, _ := runner.MapN(n, g.conns, func(i int) (*request, error) {
		q := &request{spec: i}
		q.lat.due = time.Now()
		q.lat.sent = q.lat.due
		g.submit(q, 0)
		return q, nil
	})
	return reqs
}

// burst submits burstN fresh jobs with ?wait=0 as fast as the
// connections allow, every third one repeating its predecessor, then
// polls until every admitted job is answered. With 2 workers and 8
// queue slots the daemon joins the repeats of queued jobs and rejects
// the rest once its queue is full. It returns the outcomes and the
// largest in-flight count /v1/stats reported.
func (g *loadgen) burst(specs []jobspec.Spec) ([]*request, int, error) {
	var bodies [][]byte
	for _, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, 0, err
		}
		bodies = append(bodies, b)
	}
	reqs := make([]*request, len(specs))
	hashes := map[string][]*request{}
	for i := range specs {
		q := &request{spec: i}
		q.lat.due = time.Now()
		q.lat.sent = q.lat.due
		status, src, body, err := readResp(g.client.Post(g.d.base+"/v1/jobs?wait=0", "application/json", bytes.NewReader(bodies[i])))
		h := specs[i].Hash()
		switch {
		case err != nil:
			q.outcome, q.err = outError, err.Error()
		case status == http.StatusOK && src == "hit":
			q.outcome, q.body, q.lat.done = outHit, body, time.Now()
		case status == http.StatusAccepted && len(hashes[h]) > 0:
			q.outcome = outJoin
		case status == http.StatusAccepted:
			q.outcome = outMiss
		case status == http.StatusTooManyRequests:
			q.outcome = outRejected
		default:
			q.outcome, q.err = outError, fmt.Sprintf("status %d", status)
		}
		if q.outcome == outMiss || q.outcome == outJoin {
			hashes[h] = append(hashes[h], q)
		}
		reqs[i] = q
	}
	inflight := 0
	deadline := time.Now().Add(60 * time.Second)
	for len(hashes) > 0 {
		if st, err := g.d.stats(g.client); err == nil && st.Jobs.Inflight > inflight {
			inflight = st.Jobs.Inflight
		}
		for h, qs := range hashes {
			status, _, body, err := readResp(g.client.Get(g.d.base + "/v1/jobs/" + h))
			if err == nil && status == http.StatusAccepted {
				continue
			}
			for _, q := range qs {
				q.lat.done = time.Now()
				if err == nil && status == http.StatusOK {
					q.body = body
				} else {
					q.outcome, q.err = outError, fmt.Sprintf("poll: status %d, err %v", status, err)
				}
			}
			delete(hashes, h)
		}
		if time.Now().After(deadline) {
			return nil, 0, errors.New("burst jobs did not finish within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return reqs, inflight, nil
}

// burstSpecs are fresh halo jobs, outside the pool, each repeated once
// right after its first submission.
func burstSpecs(seed uint64) []jobspec.Spec {
	r := newRand(seed ^ 0xb0057)
	var out []jobspec.Spec
	for len(out) < burstN {
		s := jobspec.Spec{Kind: jobspec.KindHalo, GridX: 32, GridY: 16, Iterations: 3, Words: 2000 + int(r.next()%4000)}
		out = append(out, s.Canonical())
		if len(out)%3 == 2 {
			out = append(out, s.Canonical())
		}
	}
	return out
}

func readResp(resp *http.Response, err error) (int, string, []byte, error) {
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Bgpsimd-Cache"), b, err
}

// referenceDoc runs a spec directly, outside the server, and builds
// the document the server sends for it.
func referenceDoc(spec jobspec.Spec) ([]byte, error) {
	var stdout, stderr bytes.Buffer
	rr, err := jobspec.Run(spec, &stdout, &stderr)
	doc := server.ResultDoc{Hash: spec.Hash(), Spec: spec, Stdout: stdout.String(), Stderr: stderr.String()}
	if rr != nil {
		for _, a := range rr.Artifacts {
			doc.Artifacts = append(doc.Artifacts, server.ArtifactDoc{Name: a.Name, Data: a.Data})
		}
	}
	if err != nil {
		doc.Error = err.Error()
	}
	return json.Marshal(doc)
}

// checkBodies counts every request as one operation: it fails if it
// failed, or if its body differs from the first body served for the
// same spec. It returns those first bodies by spec index.
func checkBodies(o *outcome, reqs []*request) map[int][]byte {
	first := map[int][]byte{}
	for _, q := range reqs {
		o.attempted++
		if q.failed() {
			o.failed++
			o.note("FAILED: spec %d: outcome %d %s", q.spec, q.outcome, q.err)
			continue
		}
		if f, ok := first[q.spec]; !ok {
			first[q.spec] = q.body
		} else if !bytes.Equal(f, q.body) {
			o.failed++
			o.note("CHECK FAILED: spec %d: body differs from the first body served for it", q.spec)
		}
	}
	return first
}

// checkReference compares each served body with a direct jobspec.Run
// of its spec, on nproc goroutines, and returns each run's seconds.
func checkReference(o *outcome, specs []jobspec.Spec, served map[int][]byte, tr *tracer, workers int) []float64 {
	var idx []int
	for i := range specs {
		if _, ok := served[i]; ok {
			idx = append(idx, i)
		}
	}
	type ref struct {
		secs float64
		same bool
		err  error
	}
	refs, _ := runner.MapN(len(idx), workers, func(k int) (ref, error) {
		t := time.Now()
		sp := tr.begin("jobspec.Run", 0, k)
		doc, err := referenceDoc(specs[idx[k]])
		tr.end(sp)
		return ref{time.Since(t).Seconds(), err == nil && bytes.Equal(doc, served[idx[k]]), err}, nil
	})
	secs := make([]float64, len(idx))
	for k, i := range idx {
		secs[k] = refs[k].secs
		o.check(refs[k].same, "spec %d: served body differs from a direct jobspec.Run (err %v)", i, refs[k].err)
	}
	return secs
}

func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	dir := filepath.Join(cfg.root, ".bench_build", "serve")
	transport := &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}

	p := servePool(cfg.seed)
	g := &loadgen{client: client, bodies: p.bodies(), conns: cfg.nproc}

	// Set-up: start the daemon until /v1/healthz and a first job
	// answer, then fill its cache with the most popular specs. Three
	// times; the third daemon serves the run.
	var d *daemon
	var all []*request
	var setups []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		var err error
		if d, err = startDaemon(cfg.bgpsimd, dir, client); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		g.d = d
		pre := g.prefill(cacheEntries)
		setups = append(setups, time.Since(t).Seconds())
		all = append(all, pre...)
		if i < 2 {
			if _, _, err := d.stop(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
	}
	o.set("setup_s", median(setups))
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	r := newRand(cfg.seed)
	phase := func(arrivals []arrival, tr *tracer, run int) *phaseResult {
		g.tr = tr
		ph := g.runPhase(arrivals, run)
		all = append(all, ph.reqs...)
		return ph
	}

	// The fixed-rate window gives the latency metrics; the saturation
	// phase gives max_rps.
	n := int(baseRPS * (cfg.seconds - 4*time.Second).Seconds())
	if n < minWindow {
		n = minWindow
	}
	arrivals := schedule(p, r, baseRPS, n)
	win := phase(arrivals, nil, 1)
	var traced *phaseResult
	if cfg.traced() {
		// The same schedule again, so the two makespans differ only by
		// the tracing.
		traced = phase(arrivals, cfg.tr, 2)
	}
	sat := phase(schedule(p, r, satRPS, satN), nil, 3)
	maxRPS := float64(len(sat.reqs)) / sat.end.Sub(sat.start).Seconds()
	o.note("saturation: %d requests offered at %.0f/s, %d still waiting at the last due time", satN, satRPS, sat.backlog)
	if maxRPS > satRPS/2 {
		return nil, fmt.Errorf("the daemon served %.0f/s, more than half the saturating rate %.0f/s", maxRPS, satRPS)
	}
	served := checkBodies(o, all)

	// The burst runs the daemon's admission paths: queue, joins and
	// rejections. Its rejections are what it probes for, so only its
	// answered bodies are checked.
	bspecs := burstSpecs(cfg.seed)
	breqs, inflight, err := g.burst(bspecs)
	if err != nil {
		return nil, err
	}
	st, err := d.stats(client)
	if err != nil {
		return nil, err
	}
	rss, cpu, err := d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	var answered []*request
	var joins, rejects int
	for _, q := range breqs {
		switch q.outcome {
		case outRejected:
			rejects++
			continue
		case outJoin:
			joins++
		}
		answered = append(answered, q)
	}
	bserved := checkBodies(o, answered)
	o.note("burst: %d submissions, %d joined, %d rejected, up to %d in flight", len(breqs), joins, rejects, inflight)

	runSecs := checkReference(o, p.specs, served, cfg.tr, cfg.nproc)
	checkReference(o, bspecs, bserved, nil, cfg.nproc)

	lat := win.latenciesMs(nil)
	p99, beyond := percentile(lat, 99)
	o.note("fixed window: %d requests at %.0f/s, %d beyond p99", len(lat), baseRPS, beyond)
	if beyond < minBeyond {
		return nil, fmt.Errorf("the fixed window has %d requests beyond p99, want >= %d", beyond, minBeyond)
	}
	if !cfg.traced() {
		p50, _ := percentile(lat, 50)
		o.set("wall_s", win.end.Sub(win.start).Seconds())
		o.set("p50_ms", p50)
		o.set("max_rps", maxRPS)
		o.set("peak_rss_mib", rss)
		// The first two daemons answered only their prefill.
		o.set("cpu_ms", cpu.Seconds()*1e3/float64(len(all)-2*cacheEntries+len(breqs)))
		return o, nil
	}

	var hits int
	for _, q := range traced.reqs {
		if q.outcome == outHit {
			hits++
		}
	}
	o.set("server.hit_ratio", float64(hits)/float64(len(traced.reqs)))
	o.set("server.join_ratio", float64(joins)/float64(len(breqs)))
	o.set("server.reject_frac", float64(rejects)/float64(len(breqs)))
	o.set("server.inflight_max", float64(inflight))
	o.set("server.evictions", float64(st.Cache.Evictions))
	hitMs, _ := percentile(traced.latenciesMs(func(q *request) bool { return q.outcome == outHit }), 50)
	missMs, _ := percentile(traced.latenciesMs(func(q *request) bool { return q.outcome == outMiss }), 50)
	o.set("server.hit_ms", hitMs)
	o.set("server.miss_ms", missMs)
	o.set("jobspec.run_ms", median(runSecs)*1e3)
	var late []float64
	for _, q := range win.reqs {
		late = append(late, float64(q.lat.late())/float64(time.Millisecond))
	}
	lateMs, _ := percentile(late, 99)
	o.set("loadgen.late_ms", lateMs)
	o.set("loadgen.p99_ms", p99)
	o.set("trace.overhead", traced.end.Sub(traced.start).Seconds()/win.end.Sub(win.start).Seconds())
	ratio, err := traceRatio()
	if err != nil {
		return nil, err
	}
	o.set("obs.trace_ratio", ratio)
	setGC(o, gcStats{})
	return o, nil
}

// traceRatio times a halo job with trace and profile on against the
// same job with them off, directly through jobspec.Run, median of five
// each.
func traceRatio() (float64, error) {
	timeRun := func(traced bool) (float64, error) {
		s := jobspec.Spec{Kind: jobspec.KindHalo, GridX: 16, GridY: 8, Iterations: 5, Trace: traced, Profile: traced}
		var ts []float64
		for i := 0; i < 5; i++ {
			t, err := timeOnce(func() error {
				_, err := jobspec.Run(s, io.Discard, io.Discard)
				return err
			})
			if err != nil {
				return 0, err
			}
			ts = append(ts, t)
		}
		return median(ts), nil
	}
	on, err := timeRun(true)
	if err != nil {
		return 0, err
	}
	off, err := timeRun(false)
	if err != nil {
		return 0, err
	}
	return on / off, nil
}
