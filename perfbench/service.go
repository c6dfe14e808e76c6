package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"safemeasure/internal/campaign"
	"safemeasure/internal/core"
	"safemeasure/internal/lab"
	"safemeasure/internal/measured"
	"safemeasure/internal/telemetry"
)

// mixCells is measload's request mix: applicable (technique, scenario)
// cells spanning the overt, mimicry and spoofed families.
var mixCells = []struct{ technique, scenario string }{
	{"overt-dns", "dns-poison"},
	{"overt-http", "keyword-rst"},
	{"overt-tcp", "blackhole"},
	{"spam", "dns-poison"},
	{"syn-scan", "port-block"},
	{"spoofed-dns", "dns-poison"},
	{"ddos", "keyword-rst"},
	{"stateful-spoof", "keyword-rst"},
}

const (
	svcTrials   = 2  // trials per request
	svcClients  = 32 // client identities the requests rotate over
	svcHitEvery = 4  // one request in four repeats an earlier identity
	warmRecords = 2  // requests' worth of records warm start loads per set-up
)

// svcHarness is one running measured service behind a loopback listener.
type svcHarness struct {
	reg   *telemetry.Registry
	store *measured.Store
	svc   *measured.Service
	srv   *http.Server
	url   string
}

// startService is the service's set-up: compile the mix's artifacts, open
// the journal and binary archive, build the service at daemon defaults,
// warm-start and replay, and serve on loopback.
//
// The journal runs as safemeasured -journal-fsync=false: every journal and
// archive write still happens, but none waits for the disk. The store must
// live inside the benchmark's checkout, which is on the VM's shared disk,
// and with fsync on, fsync latency there swung the service's throughput
// twofold between otherwise identical runs.
func startService(dir string, nproc int) (*svcHarness, error) {
	for _, name := range []string{"dns-poison", "keyword-rst", "blackhole", "port-block"} {
		sc, _ := lab.ScenarioByName(name)
		if _, err := lab.NewArtifacts(sc.Config(0)); err != nil {
			return nil, err
		}
	}
	h := &svcHarness{reg: telemetry.NewRegistry()}
	st, err := measured.OpenStore(measured.StoreConfig{
		Journal: filepath.Join(dir, "journal.wal"),
		Archive: filepath.Join(dir, "archive.smoa"),
		Metrics: h.reg,
	})
	if err != nil {
		return nil, err
	}
	h.store = st
	h.svc = measured.New(measured.Config{
		Workers:           nproc,
		Timeout:           60 * time.Second,
		Retry:             core.DefaultRetryPolicy(),
		QueueMax:          measured.DefaultQueueMax,
		RatePerSec:        measured.DefaultRatePerSec,
		Burst:             measured.DefaultBurst,
		CacheMax:          measured.DefaultCacheMax,
		MaxRunsPerRequest: measured.DefaultMaxRunsPerRequest,
		WriteTimeout:      measured.DefaultWriteTimeout,
		StreamBuf:         measured.DefaultStreamBuf,
		Metrics:           h.reg,
		Store:             st,
	})
	if _, err := h.svc.WarmStart(); err != nil {
		h.stop()
		return nil, err
	}
	h.svc.Replay()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.stop()
		return nil, err
	}
	h.srv = &http.Server{Handler: h.svc.Handler()}
	go h.srv.Serve(ln)
	h.url = "http://" + ln.Addr().String() + "/measure"
	return h, nil
}

// stop shuts down in safemeasured's order: listener, service, store.
func (h *svcHarness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.svc.BeginDrain()
	var errs []error
	if h.srv != nil {
		errs = append(errs, h.srv.Shutdown(ctx))
	}
	errs = append(errs, h.svc.Shutdown(ctx), h.store.Close())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// seedArchive writes a small archive for warm start to load: the records
// of two mix requests, admitted and completed through a store as the
// service would.
func seedArchive(dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, err := measured.OpenStore(measured.StoreConfig{
		Journal: filepath.Join(dir, "journal.wal"), Archive: filepath.Join(dir, "archive.smoa")})
	if err != nil {
		return err
	}
	for i := 0; i < warmRecords; i++ {
		cell := mixCells[i]
		plan, err := campaign.NewPlan(campaign.PlanConfig{
			Techniques: []string{cell.technique}, Scenarios: []string{cell.scenario},
			Trials: svcTrials, Seed: passSeed(seed, -2-i)})
		if err != nil {
			return err
		}
		if err := st.JournalAdmit("warm", plan.Specs); err != nil {
			return err
		}
		for _, spec := range plan.Specs {
			if err := st.Complete(campaign.Execute(spec, 0)); err != nil {
				return err
			}
		}
	}
	return st.Close()
}

// copyStore copies a store directory's files into a fresh directory.
func copyStore(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"journal.wal", "archive.smoa"} {
		b, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// svcRequest is one completed request as the client saw it.
type svcRequest struct {
	req        measured.Request
	hit        bool // repeated an identity this connection already received
	traced     bool
	end        time.Duration // aggregate frame, since the window opened
	latency    time.Duration // send → aggregate frame
	firstFrame time.Duration // send → first record frame
	// recs are the streamed records, kept only for the first
	// replayRequests misses (serviceLayers replays them into a store), so
	// the client's memory stays out of the service's.
	recs []campaign.RunRecord
}

// replayRequests is how many executed requests serviceLayers replays.
const replayRequests = 300

// svcLoop is the measured closed loop's result.
type svcLoop struct {
	reqs    []svcRequest
	cost    runtimeCost
	setup   float64 // seconds, median over cfg.setups
	repeats int64   // answered requests that repeated an identity
	kept    int     // misses whose records are kept for replay
	hits    int64   // cache hits the service counted
	misses  int64
}

// identity is a request's result identity: cell and seed.
type identity struct {
	cell int
	seed int64
}

// svcConn is one client connection's deterministic request stream.
type svcConn struct {
	id      int
	rng     *rand.Rand
	n       int
	fresh   int
	history []identity
	bodies  map[identity][32]byte
}

func newSvcConn(seed int64, id int) *svcConn {
	return &svcConn{id: id, rng: rand.New(rand.NewSource(passSeed(seed, 1000+id))),
		bodies: map[identity][32]byte{}}
}

// next picks the connection's next request: every svcHitEvery-th repeats an
// identity it already received (a cache hit), the rest carry fresh seeds.
func (c *svcConn) next(seed int64) (identity, bool) {
	defer func() { c.n++ }()
	if c.n%svcHitEvery == svcHitEvery-1 && len(c.history) > 0 {
		return c.history[c.rng.Intn(len(c.history))], true
	}
	c.fresh++
	return identity{cell: c.rng.Intn(len(mixCells)),
		seed: passSeed(seed*int64(64)+int64(c.id), c.fresh)}, false
}

// request builds the measured request for an identity.
func (c *svcConn) request(id identity) measured.Request {
	cell := mixCells[id.cell]
	return measured.Request{Technique: cell.technique, Scenario: cell.scenario,
		Trials: svcTrials, Seed: id.seed,
		Client: fmt.Sprintf("bench-%02d", (c.id*(svcClients/2)+c.n)%svcClients)}
}

// measureService sets the service up cfg.setups times, then drives it from nproc connections for window.
// In traced mode, alternate quarters of the window record per-request
// spans. The service is returned still running for layer measurements.
func measureService(cfg config, o *outcome, window time.Duration, traced bool, sp *spans) (*svcHarness, *svcLoop, error) {
	warm := filepath.Join(cfg.workDir, "warm")
	if err := seedArchive(warm, cfg.seed); err != nil {
		return nil, nil, fmt.Errorf("seed archive: %w", err)
	}
	var setups []time.Duration
	var h *svcHarness
	for i := 0; i < cfg.setups; i++ {
		if h != nil {
			if err := h.stop(); err != nil {
				return nil, nil, err
			}
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("store-%d", i))
		if err := copyStore(warm, dir); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		var err error
		if h, err = startService(dir, cfg.nproc); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	tr := &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}

	hits0 := h.reg.Counter("measured_cache_hits_total").Value()
	misses0 := h.reg.Counter("measured_cache_misses_total").Value()
	loop := &svcLoop{setup: median(seconds(setups))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	before := sampleRuntime()
	start := time.Now()
	for c := 0; c < cfg.nproc; c++ {
		wg.Add(1)
		go func(conn *svcConn) {
			defer wg.Done()
			for time.Since(start) < window {
				id, hit := conn.next(cfg.seed)
				req := conn.request(id)
				on := traced && int(time.Since(start)/(window/4))%2 == 1
				r, body, err := fetch(client, h.url, req, on, sp, &mu)
				r.hit = hit
				r.end = time.Since(start)
				mu.Lock()
				o.attempted++
				if err != nil {
					o.fail(1, err.Error())
					mu.Unlock()
					continue
				}
				if hit {
					loop.repeats++
				}
				mu.Unlock()
				sum := sha256.Sum256(body)
				if hit {
					if cfg.tamper.flipHitByte {
						body[len(body)/2] ^= 0x20
						sum = sha256.Sum256(body)
					}
					if conn.bodies[id] != sum {
						mu.Lock()
						o.fail(1, "cache hit differs from the first response")
						mu.Unlock()
						continue
					}
				} else {
					conn.bodies[id] = sum
					conn.history = append(conn.history, id)
				}
				mu.Lock()
				if hit || loop.kept == replayRequests {
					r.recs = nil
				} else {
					loop.kept++
				}
				loop.reqs = append(loop.reqs, r)
				mu.Unlock()
			}
		}(newSvcConn(cfg.seed, c))
	}
	wg.Wait()
	loop.cost = before.costTo(sampleRuntime(), len(loop.reqs))
	loop.hits = h.reg.Counter("measured_cache_hits_total").Value() - hits0
	loop.misses = h.reg.Counter("measured_cache_misses_total").Value() - misses0

	// Every answered repeat must have been served from the cache.
	if want := loop.repeats * svcTrials; loop.hits != want {
		o.fail(1, fmt.Sprintf("service counted %d cache hits, expected %d", loop.hits, want))
	}
	o.detail["requests"] = len(loop.reqs)
	o.detail["cache_hits"] = loop.hits
	o.detail["cache_misses"] = loop.misses
	return h, loop, nil
}

// fetch sends one request and reads its NDJSON stream to the aggregate
// frame, checking status, framing and every record.
func fetch(client *http.Client, base string, req measured.Request, traced bool, sp *spans, mu *sync.Mutex) (svcRequest, []byte, error) {
	r := svcRequest{req: req, traced: traced}
	q := url.Values{}
	q.Set("technique", req.Technique)
	q.Set("scenario", req.Scenario)
	q.Set("trials", strconv.Itoa(req.Trials))
	q.Set("seed", strconv.FormatInt(req.Seed, 10))
	q.Set("client", req.Client)
	var root, first int = -1, -1
	if traced {
		mu.Lock()
		root = sp.begin("request", -1, int(req.Seed&0x7fffffff))
		first = sp.begin("first_frame", root, int(req.Seed&0x7fffffff))
		mu.Unlock()
	}
	t0 := time.Now()
	resp, err := client.Get(base + "?" + q.Encode())
	if err != nil {
		return r, nil, fmt.Errorf("transport error")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return r, nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var body bytes.Buffer
	br := bufio.NewReader(resp.Body)
	aggregate := false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if body.Len() == 0 {
				r.firstFrame = time.Since(t0)
				if traced {
					mu.Lock()
					sp.end(first)
					mu.Unlock()
				}
			}
			body.Write(line)
			if bytes.HasPrefix(line, []byte(`{"aggregate"`)) {
				aggregate = true
				r.latency = time.Since(t0)
			} else {
				var rec campaign.RunRecord
				if err := json.Unmarshal(line, &rec); err != nil {
					return r, nil, fmt.Errorf("undecodable record frame")
				}
				r.recs = append(r.recs, rec)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return r, nil, fmt.Errorf("truncated stream")
		}
	}
	if traced {
		mu.Lock()
		sp.end(root)
		mu.Unlock()
	}
	if !aggregate || len(r.recs) != req.Trials {
		return r, nil, fmt.Errorf("truncated stream")
	}
	sc, _ := lab.ScenarioByName(req.Scenario)
	for _, rec := range r.recs {
		want := core.VerdictAccessible.String()
		if sc.Censored {
			want = core.VerdictCensored.String()
		}
		if rec.Error != "" || rec.Verdict != want || !rec.Correct || rec.Technique != req.Technique {
			return r, nil, fmt.Errorf("record wrong against ground truth")
		}
	}
	return r, body.Bytes(), nil
}

func runService(cfg config) (*outcome, error) {
	o := newOutcome()
	h, loop, err := measureService(cfg, o, cfg.window, false, nil)
	if err != nil {
		return nil, err
	}
	if err := h.stop(); err != nil {
		return nil, err
	}
	var samples []sample
	for _, r := range loop.reqs {
		samples = append(samples, sample{end: r.end, latency: r.latency, units: 1})
	}
	reportLoop(o, samples)
	o.set("setup_s", loop.setup, "s")
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	o.detail["op"] = "one request, send to aggregate frame"
	return o, nil
}

func tracedService(cfg config) (*outcome, error) {
	o := newOutcome()
	sp := newSpans()
	h, loop, err := measureService(cfg, o, cfg.window, true, sp)
	if err != nil {
		return nil, err
	}
	setRuntimeCost(o, loop.cost)
	if err := serviceLayers(cfg, o, h, loop); err != nil {
		h.stop()
		return nil, err
	}
	if err := h.stop(); err != nil {
		return nil, err
	}
	// Overhead of the client's own spans: mean latency of traced quarters
	// against untraced ones.
	var on, off []float64
	for _, r := range loop.reqs {
		if r.traced {
			on = append(on, r.latency.Seconds())
		} else {
			off = append(off, r.latency.Seconds())
		}
	}
	o.set("bench.trace_overhead_frac", mean(on)/mean(off)-1, "ratio")
	if _, err := layerSweep(cfg, o, sweepOpts{haveService: true}); err != nil {
		return nil, err
	}
	return o, sp.write(cfg.spansPath)
}

// serviceLayers reports the measured.* metrics from a finished loop: the
// hit/miss latency split (the benchmark knows which requests repeated),
// Service.Plan timed directly, and Store.JournalAdmit / Store.Complete timed
// by replaying the loop's executed requests into a second store on the same
// filesystem.
func serviceLayers(cfg config, o *outcome, h *svcHarness, loop *svcLoop) error {
	var hit, miss, first []float64
	var replayed []svcRequest
	for _, r := range loop.reqs {
		first = append(first, r.firstFrame.Seconds()*1e3)
		if r.hit {
			hit = append(hit, r.latency.Seconds()*1e3)
		} else {
			miss = append(miss, r.latency.Seconds()*1e3)
		}
		if r.recs != nil {
			replayed = append(replayed, r)
		}
	}
	o.set("measured.hit_p50_ms", median(hit), "ms")
	o.set("measured.miss_p50_ms", median(miss), "ms")
	o.set("measured.first_frame_p50_ms", median(first), "ms")
	if total := loop.hits + loop.misses; total > 0 {
		o.set("measured.hit_ratio", float64(loop.hits)/float64(total), "ratio")
	}

	const planReps = 2000
	t0 := time.Now()
	for i := 0; i < planReps; i++ {
		if _, err := h.svc.Plan(loop.reqs[i%len(loop.reqs)].req); err != nil {
			return err
		}
	}
	o.set("measured.plan_us", float64(time.Since(t0).Microseconds())/planReps, "us")

	replay := filepath.Join(cfg.workDir, "replay")
	if err := os.MkdirAll(replay, 0o755); err != nil {
		return err
	}
	st, err := measured.OpenStore(measured.StoreConfig{
		Journal: filepath.Join(replay, "journal.wal"), Archive: filepath.Join(replay, "archive.smoa")})
	if err != nil {
		return err
	}
	var admit, complete []float64
	for _, r := range replayed {
		p, err := h.svc.Plan(r.req)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := st.JournalAdmit(r.req.Client, p.Specs); err != nil {
			return err
		}
		admit = append(admit, float64(time.Since(t0).Nanoseconds())/1e3)
		for _, rec := range r.recs {
			t0 := time.Now()
			if err := st.Complete(rec); err != nil {
				return err
			}
			complete = append(complete, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	o.set("measured.journal_admit_us", median(admit), "us")
	o.set("measured.complete_us", median(complete), "us")
	o.detail["measured_replayed_requests"] = len(replayed)
	return nil
}
