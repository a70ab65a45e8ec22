package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Fixed daemon-mix parameters.
const (
	daemonClients    = 2     // closed-loop clients, one connection each
	daemonInflight   = 1     // admission: jobs executing at once
	daemonQueue      = 64    // admission queue; deep enough that nothing is shed
	warmPerCold      = 3     // plan blocks of one cold and three warm requests
	daemonPlanLength = 40000 // requests generated per run; far above what a run sends
)

// daemonPrograms are the programs the daemon can take: ckit, SPEC-like
// except astar_like, and apps except lightftp_like, whose host model
// cannot be sent to the daemon.
func daemonPrograms(tiny bool) []*workloads.Workload {
	if tiny {
		return []*workloads.Workload{workloads.CKit()[0], workloads.ByName("mcf_like")}
	}
	var out []*workloads.Workload
	for _, set := range [][]*workloads.Workload{workloads.CKit(), workloads.Spec(), workloads.Apps()} {
		for _, w := range set {
			if w.Name != "astar_like" && w.Name != "lightftp_like" {
				out = append(out, w)
			}
		}
	}
	return out
}

// planReq is one generated request: a program, cold (its -O0 build under a
// fresh name, so it misses every tier) or warm (its -O2 build, pre-warmed
// into the disk tier).
type planReq struct {
	prog    int
	cold    bool
	variant int // cold requests: the unique image variant
}

// makePlan generates the seeded request sequence over n programs: blocks of
// one cold and warmPerCold warm requests, the cold one at a seeded position;
// cold requests walk the programs in a seeded order, each a new variant;
// warm requests pick programs with Zipf-like skew (weight 1/rank) over a
// seeded ranking.
func makePlan(seed int64, n, length int) []planReq {
	rng := rand.New(rand.NewSource(seed))
	coldOrder := rng.Perm(n)
	rank := rng.Perm(n)
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	warm := func() int {
		x := rng.Float64() * total
		for i, c := range cum {
			if x < c {
				return rank[i]
			}
		}
		return rank[n-1]
	}
	plan := make([]planReq, 0, length)
	variant := 0
	for len(plan) < length {
		at := rng.Intn(warmPerCold + 1)
		for k := 0; k <= warmPerCold && len(plan) < length; k++ {
			if k == at {
				plan = append(plan, planReq{prog: coldOrder[variant%n], cold: true, variant: variant})
				variant++
			} else {
				plan = append(plan, planReq{prog: warm()})
			}
		}
	}
	return plan
}

// planDigest fingerprints the first n requests of a plan as the program
// receives them: program, build and image name.
func planDigest(plan []planReq, progs []*workloads.Workload, n int) string {
	h := sha256.New()
	for _, p := range plan[:min(n, len(plan))] {
		fmt.Fprintf(h, "%s\n", requestName(progs[p.prog], p))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// requestName is the image name a request carries: a cold request renames
// its -O0 build to a name of its own; a warm one sends the -O2 build as
// compiled, under the workload's name.
func requestName(w *workloads.Workload, p planReq) string {
	if p.cold {
		return fmt.Sprintf("%s-O0-v%d", w.Name, p.variant)
	}
	return w.Name
}

// daemonBuild is one of a program's two builds.
type daemonBuild struct {
	w    *workloads.Workload
	cold bool
	img  *image.Image
}

func (b *daemonBuild) key() string {
	if b.cold {
		return b.w.Name + "/O0"
	}
	return b.w.Name + "/O2"
}

// daemon is a running in-process server on loopback.
type daemon struct {
	http   *http.Server
	url    string
	served chan error
	dir    string
	logBuf *lockedBuffer
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func daemonOptions() core.Options {
	o := core.DefaultOptions()
	o.Workers = pipeWorkers
	return o
}

// startDaemon pre-warms the warm builds into a fresh disk tier through a
// throwaway server, then starts the measured server: a fresh memory tier
// over that disk tier, one job in flight, a deep queue. With logs, the
// server writes its access log to memory (traced runs).
func startDaemon(warm []*daemonBuild, withLog bool) (*daemon, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	disk, err := store.OpenDisk(dir)
	if err != nil {
		d.close()
		return nil, err
	}
	pre := serve.New(serve.Config{Opts: daemonOptions(), Backing: disk})
	for _, b := range warm {
		body, err := b.img.Marshal()
		if err != nil {
			d.close()
			return nil, err
		}
		req := httptest.NewRequest("POST", "/v1/recompile"+query(b.w), bytes.NewReader(body))
		setInput(req, b.w)
		rr := httptest.NewRecorder()
		pre.Handler().ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			d.close()
			return nil, fmt.Errorf("pre-warm %s: HTTP %d: %s", b.key(), rr.Code, strings.TrimSpace(rr.Body.String()))
		}
	}
	disk2, err := store.OpenDisk(dir)
	if err != nil {
		d.close()
		return nil, err
	}
	cfg := serve.Config{Opts: daemonOptions(), Backing: disk2,
		MaxInflightJobs: daemonInflight, MaxQueueJobs: daemonQueue}
	if withLog {
		d.logBuf = &lockedBuffer{}
		cfg.Logger = slog.New(slog.NewJSONHandler(d.logBuf, nil))
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: srv.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// close stops the server, waits for it, and removes the store directory.
func (d *daemon) close() {
	if d.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		d.http.Shutdown(ctx) // in-flight requests are the benchmark's own and have ended
		cancel()
		<-d.served
	}
	os.RemoveAll(d.dir)
}

// query is a job's query string: trace, with the workload's own seed.
func query(w *workloads.Workload) string {
	return "?trace=1&seed=" + strconv.FormatInt(w.Input().Seed, 10)
}

func setInput(req *http.Request, w *workloads.Workload) {
	if data := w.Input().Data; len(data) > 0 {
		req.Header.Set("X-Polynima-Input", base64.StdEncoding.EncodeToString(data))
	}
}

// daemonReply is one answered request.
type daemonReply struct {
	req      planReq
	latency  time.Duration
	done     time.Duration // completion, from the start of the timed phase
	traceID  string
	span     int // the client round-trip span (traced runs)
	body     []byte
	codeSize int
}

// send posts one planned request and reads the whole reply.
func send(client *http.Client, url string, b *daemonBuild, p planReq,
	rec *recorder, parent int, t *tally) (daemonReply, error) {
	w := b.w
	rep := daemonReply{req: p}
	sp := rec.begin("image", parent)
	m0 := time.Now()
	img := b.img // warm: the pre-warmed build, byte for byte
	if p.cold {
		img = b.img.Clone()
		img.Name = requestName(w, p)
	}
	body, err := img.Marshal()
	marshalDur := time.Since(m0)
	rec.end(sp)
	if err != nil {
		return rep, err
	}
	req, err := http.NewRequest("POST", url+"/v1/recompile"+query(w), bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	setInput(req, w)
	sp = rec.begin("serve", parent)
	rep.span = sp
	t0 := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rep.latency = time.Since(t0)
	rec.end(sp)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(rep.body)))
	}
	rep.traceID = resp.Header.Get("X-Polynima-Trace-Id")
	rep.codeSize, _ = strconv.Atoi(resp.Header.Get("X-Polynima-Code-Size"))
	if p.cold {
		for _, h := range []string{"X-Polynima-Store-Mem-Hits", "X-Polynima-Store-Back-Hits"} {
			if v := resp.Header.Get(h); v != "0" {
				return rep, fmt.Errorf("cold job was served from the store (%s: %s)", h, v)
			}
		}
	}
	sp = rec.begin("image", parent)
	u0 := time.Now()
	_, err = image.Unmarshal(rep.body)
	t.add("image.marshal_ms", ms(marshalDur+time.Since(u0)))
	rec.end(sp)
	return rep, err
}

// runDaemon is the daemon-mix workload: the polynimad job path with warm
// reads beside cold writes, from closed-loop clients over loopback, in a
// seeded request order; every distinct response is run and checked after
// the timed phase.
func runDaemon(e *env, rec *recorder) (*result, error) {
	r := newResult()
	t := newTally()
	root := rec.begin("bench", -1)
	progs := daemonPrograms(e.tiny)
	var builds [][2]*daemonBuild // per program: cold (-O0), warm (-O2)
	var d *daemon
	err := timeSetup(e, r, func(int) error {
		if d != nil {
			d.close()
			d = nil
		}
		builds = builds[:0]
		var warm []*daemonBuild
		for _, w := range progs {
			var pair [2]*daemonBuild
			for i, opt := range []int{0, 2} {
				img, err := compile(w, opt, rec, root, t)
				if err != nil {
					return err
				}
				pair[i] = &daemonBuild{w: w, cold: opt == 0, img: img}
			}
			builds = append(builds, pair)
			warm = append(warm, pair[1])
		}
		var err error
		d, err = startDaemon(warm, rec != nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()

	plan := makePlan(e.seed, len(progs), daemonPlanLength)
	var next atomic.Int64
	var mu sync.Mutex
	var replies []daemonReply
	settle()
	stop := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for {
				r.pace.tickEvery(paceEvery)
				// The first block always goes out, so that even the
				// shortest run measures cold and warm jobs; after it, the
				// deadline ends the phase.
				i := int(next.Add(1) - 1)
				if i >= len(plan) || (i > warmPerCold && !time.Now().Before(stop)) {
					return
				}
				p := plan[i]
				pair := builds[p.prog]
				b := pair[1]
				if p.cold {
					b = pair[0]
				}
				var rep daemonReply
				var err error
				r.pace.job(func() {
					sp := rec.begin("bench", root)
					rep, err = send(client, d.url, b, p, rec, sp, t)
					rec.end(sp)
				})
				rep.done = time.Since(t0)
				mu.Lock()
				if err != nil {
					r.failf("request %d (%s): %v", i, requestName(b.w, p), err)
				} else {
					replies = append(replies, rep)
				}
				r.attempted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	r.pace.tick()
	// Requests leave in plan order and a client that finds the phase over
	// sends nothing more, so exactly the first r.attempted were sent.
	sent := r.attempted
	if sent >= len(plan) {
		return nil, fmt.Errorf("request plan of %d exhausted; lengthen it", len(plan))
	}

	var metricsText string
	if rec != nil {
		metricsText, err = scrape(d.url)
		if err != nil {
			return nil, err
		}
	}
	var logText string
	if d.logBuf != nil {
		logText = d.logBuf.String()
	}
	d.close()
	d = nil

	// Check phase: run every distinct response, and each build natively
	// once for the cycle ratio.
	chk := rec.begin("bench", -1)
	var cold, warm []float64
	seen := map[[32]byte]bool{}
	native := map[string]uint64{}
	var ratios []float64
	var insts, busy float64
	code := 0
	for _, rep := range replies {
		pair := builds[rep.req.prog]
		b := pair[1]
		if rep.req.cold {
			b = pair[0]
			cold = append(cold, ms(rep.latency))
		} else {
			warm = append(warm, ms(rep.latency))
		}
		sum := sha256.Sum256(rep.body)
		if seen[sum] {
			continue
		}
		seen[sum] = true
		r.pace.tick()
		img, err := image.Unmarshal(rep.body)
		if err != nil {
			r.attempted++
			r.failf("%s: response: %v", b.key(), err)
			continue
		}
		run, ok := checkedRun(r, b.key()+" response", b.w, img, guestFuel, rec, chk, rec != nil)
		if !ok {
			continue
		}
		vmAccount(t, "mx64", run)
		insts += float64(run.res.Insts)
		busy += (run.newDur + run.runDur).Seconds()
		if _, ok := native[b.key()]; ok {
			continue
		}
		nat, ok := checkedRun(r, b.key()+" native", b.w, b.img, guestFuel, rec, chk, false)
		if !ok {
			continue
		}
		vmAccount(t, "native", nat)
		t.add("vm.insts", float64(run.res.Insts))
		native[b.key()] = nat.res.Cycles
		ratios = append(ratios, float64(run.res.Cycles)/float64(nat.res.Cycles))
		code += rep.codeSize
	}
	r.pace.tick()
	rec.end(chk)
	rec.end(root)

	win := windows(replies, elapsed)
	m := r.metrics
	m["job_p50_ms"] = win.p50
	m["job_p90_ms"] = win.p90
	m["jobs_per_s"] = win.rate
	m["guest_mips"] = insts / busy / 1e6
	m["cycle_ratio_gm"] = geomean(ratios)
	m["code_bytes"] = float64(code)
	m["ok_ratio"] = float64(r.attempted-r.failed) / float64(r.attempted)
	m["cold_job_p50_ms"] = median(cold)
	m["cold_job_p90_ms"], _ = tail(cold)
	m["warm_job_p50_ms"] = median(warm)
	m["warm_job_p90_ms"], _ = tail(warm)
	pacedFigures(r, "cold_job_p50_ms", "cold_job_p90_ms", "warm_job_p50_ms", "warm_job_p90_ms")
	m["image.marshal_ms"] = t.mean("image.marshal_ms")
	m["cc.compile_ms"] = t.mean("cc.compile_ms")
	m["vm.insts"] = t.total("vm.insts")
	vmMetrics(r, t)
	if rec != nil {
		if err := serverMetrics(m, metricsText, logText, replies, rec); err != nil {
			return nil, err
		}
	}
	selfPct(r, rec)
	_, qc := tail(cold)
	_, qw := tail(warm)
	r.notes = append(r.notes, fmt.Sprintf("daemon-mix: %d programs, plan %s, %d requests in %.2fs (%d cold, tail q=%.3f; %d warm, tail q=%.3f), %d distinct responses checked; job figures are medians over %d windows of %v",
		len(progs), planDigest(plan, progs, sent), sent, elapsed.Seconds(), len(cold), qc, len(warm), qw, len(seen),
		win.n, window))
	return r, nil
}

// window is the length of the slices of the timed phase whose medians the
// daemon's job figures are: a disk or host stall then moves one slice
// rather than the whole run.
const window = time.Second

// windowStats are the medians over the whole windows of the timed phase
// of each window's job rate, and of its warm jobs' median and tail
// latency. The job latencies are the warm ones: a read's latency is what
// a fleet client waits on, and with two clients and one slot about a
// third of the warm jobs wait behind a cold one, so the median of all
// jobs would sit on the edge between the waiting and the unhindered
// modes and jump between them. Cold jobs show in jobs_per_s and in the
// traced run's cold_job_* figures.
type windowStats struct {
	n              int
	rate, p50, p90 float64
}

func windows(replies []daemonReply, elapsed time.Duration) windowStats {
	n := int(elapsed / window)
	if n == 0 {
		// A phase shorter than one window is one window.
		n = 1
	}
	lat := make([][]float64, n)
	count := make([]int, n)
	for _, rep := range replies {
		if k := int(rep.done / window); k < n {
			count[k]++
			if !rep.req.cold {
				lat[k] = append(lat[k], ms(rep.latency))
			}
		}
	}
	width := min(window, elapsed).Seconds()
	var rates []float64
	for _, c := range count {
		rates = append(rates, float64(c)/width)
	}
	p50, p90, _ := passFigures(lat)
	return windowStats{n: n, rate: median(rates), p50: p50, p90: p90}
}

// scrape fetches the server's /metrics text.
func scrape(url string) (string, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return string(body), nil
}

// promSum adds up the samples of family name whose labels include every
// given key="value" pair.
func promSum(text, name string, labels ...string) float64 {
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // a longer family name
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		ok := true
		for i := 0; i+1 < len(labels); i += 2 {
			if !strings.Contains(line[:sp], labels[i]+`="`+labels[i+1]+`"`) {
				ok = false
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// accessLine is the part of a serve access-log line the benchmark reads.
type accessLine struct {
	TraceID   string  `json:"trace_id"`
	QueueWait float64 `json:"queue_wait_s"`
	Duration  float64 `json:"duration_s"`
}

// serverMetrics sets the serve, store and server-side figures of a traced
// run from its /metrics scrape and access log, and adds each request's
// server-side job time as a core span inside its client round trip, with
// the store's share moved to the store layer.
func serverMetrics(m map[string]float64, metricsText, logText string, replies []daemonReply, rec *recorder) error {
	byTrace := map[string]accessLine{}
	sc := bufio.NewScanner(strings.NewReader(logText))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var l accessLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("access log: %w", err)
		}
		byTrace[l.TraceID] = l
	}
	var coldJob, warmJob, overhead []float64
	for _, rep := range replies {
		l, ok := byTrace[rep.traceID]
		if !ok {
			return errors.New("access log: a request has no line")
		}
		job := l.Duration - l.QueueWait
		if rep.req.cold {
			coldJob = append(coldJob, job*1e3)
		} else {
			warmJob = append(warmJob, job*1e3)
		}
		overhead = append(overhead, ms(rep.latency)-l.Duration*1e3)
	}
	m["serve.job_ms.cold"] = mean(coldJob)
	m["serve.job_ms.warm"] = mean(warmJob)
	m["serve.overhead_ms"] = mean(overhead)
	m["serve.queue_wait_ms"] = 1e3 * perCall(promSum(metricsText, "polynimad_queue_wait_seconds_sum", "class", "jobs"),
		int(promSum(metricsText, "polynimad_queue_wait_seconds_count", "class", "jobs")))
	m["serve.rejected"] = promSum(metricsText, "polynimad_rejected_total")
	for _, tier := range []string{"mem", "disk"} {
		m["store."+tier+".hit_ratio"] = ratio(
			promSum(metricsText, "store_tier_ops_total", "tier", tier, "op", "hit"),
			promSum(metricsText, "store_tier_ops_total", "tier", tier, "op", "miss"))
	}
	for _, op := range []string{"get", "put"} {
		m["store.disk."+op+"_ms"] = 1e3 * perCall(
			promSum(metricsText, "store_tier_op_seconds_sum", "tier", "disk", "op", op),
			int(promSum(metricsText, "store_tier_op_seconds_count", "tier", "disk", "op", op)))
	}
	storeSecs := promSum(metricsText, "store_tier_op_seconds_sum")
	jobSecs := (sumOf(coldJob) + sumOf(warmJob)) / 1e3
	storeShare := min(storeSecs/max(jobSecs, 1e-9), 1)
	for _, rep := range replies {
		l := byTrace[rep.traceID]
		job := time.Duration((l.Duration - l.QueueWait) * float64(time.Second))
		end := rec.endOf(rep.span)
		split := end.Add(-time.Duration(float64(job) * storeShare))
		rec.add("core", rep.span, end.Add(-job), split)
		rec.add("store", rep.span, split, end)
	}
	return nil
}

func mean(xs []float64) float64 { return perCall(sumOf(xs), len(xs)) }

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
