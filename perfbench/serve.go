package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	fgnvm "repro"
	"repro/internal/server"
)

// The serve-mixed traffic: a closed loop of serveClients clients, each
// sending its next /v1/run request only after the previous answer,
// drawn Zipf-skewed from a fixed universe of short simulations. A run
// is a sequence of episodes; each episode starts a fresh server on a
// fresh store directory and sends episodeRequests requests, so the mix
// of memory hits, store hits and misses is the same in every episode
// however fast the host is.
const (
	serveClients      = 2 // the host has 2 CPUs; load comes from one process
	episodeRequests   = 600
	zipfS             = 1.2
	serveCacheEntries = 32
	serveInstructions = 30_000
	serveSeeds        = 8
)

var (
	serveDesigns    = []string{"baseline", "fgnvm", "fgnvm-multiissue", "salp"}
	serveBenchmarks = fgnvm.Benchmarks()
)

// serveUniverse returns the fixed key universe: designs × benchmarks ×
// seeds, every one a short simulation.
func serveUniverse() []server.RunRequest {
	var u []server.RunRequest
	for _, d := range serveDesigns {
		for _, b := range serveBenchmarks {
			for s := uint64(1); s <= serveSeeds; s++ {
				u = append(u, server.RunRequest{Design: d, Benchmark: b, Seed: s, Instructions: serveInstructions})
			}
		}
	}
	return u
}

// requestSequence returns episode ep's requests at a workload seed, as
// indices into the universe. Popularity is Zipf over ranks, and the
// ranks are stratified: the key at rank r has design × benchmark
// combination r mod 48 under a per-episode shuffle, and a shuffled seed.
// Every episode's hot set therefore spans all designs and benchmarks, so
// the cost of its misses does not hinge on which few keys the seed
// happens to make popular.
func requestSequence(seed uint64, ep int, universe int) []int {
	rng := rand.New(rand.NewSource(int64(splitmix(seed, uint64(ep)))))
	combos := universe / serveSeeds
	order := rng.Perm(combos)
	shift := make([]int, combos)
	for i := range shift {
		shift[i] = rng.Intn(serveSeeds)
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(universe-1))
	seq := make([]int, episodeRequests)
	for i := range seq {
		r := int(z.Uint64())
		c := order[r%combos]
		seq[i] = c*serveSeeds + (r/combos+shift[c])%serveSeeds
	}
	return seq
}

// reply is one answered request.
type reply struct {
	key     int // universe index
	latency time.Duration
	tier    string // the X-Cache header: hit, store, miss or coalesced
	body    []byte
	err     error
}

func (r reply) cached() bool { return r.tier == "hit" || r.tier == "store" }

// episode is what one server lifetime produced.
type episode struct {
	setup     time.Duration // server.New until /healthz answers
	replies   []reply
	wall      time.Duration // the client loop
	host      hostCounters  // the client loop
	runs      int           // simulations the server started (/metrics)
	runMSMean float64       // their mean wall time (/metrics)
}

// serveEpisode starts a server on a fresh store directory, drives seq
// through it from serveClients clients, and shuts everything down.
func serveEpisode(universe [][]byte, seq []int, spans *spanRecorder, parent int) (episode, error) {
	var ep episode
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return ep, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	srv, err := server.New(server.Config{CacheEntries: serveCacheEntries, StoreDir: dir})
	if err != nil {
		return ep, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ep, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // the clients are done: there is nothing to drain, and Serve's return is awaited below
		<-served
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	base := "http://" + ln.Addr().String()
	if _, err := get(client, base+"/healthz"); err != nil {
		return ep, err
	}
	ep.setup = time.Since(t0)

	ep.replies = make([]reply, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	h0 := readHost()
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				s := spans.start("request", parent)
				ep.replies[i] = post(client, base+"/v1/run", seq[i], universe[seq[i]])
				spans.end(s)
			}
		}()
	}
	wg.Wait()
	ep.wall = time.Since(start)
	ep.host = readHost().sub(h0)

	m, err := get(client, base+"/metrics")
	if err != nil {
		return ep, err
	}
	ep.runs, ep.runMSMean, err = parseRunLatency(m)
	return ep, err
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, err
}

func post(client *http.Client, url string, key int, body []byte) reply {
	r := reply{key: key}
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(t0)
	r.tier = resp.Header.Get("X-Cache")
	if r.err == nil && resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("POST /v1/run: %s: %s", resp.Status, strings.TrimSpace(string(r.body)))
	}
	return r
}

// parseRunLatency reads the server's count and mean wall time of the
// simulations it ran from its /metrics text.
func parseRunLatency(metrics []byte) (runs int, meanMS float64, err error) {
	var haveCount, haveMean bool
	sc := bufio.NewScanner(bytes.NewReader(metrics))
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), " ")
		switch name {
		case "fgnvm_run_latency_ms_count":
			runs, err = strconv.Atoi(val)
			haveCount = err == nil
		case "fgnvm_run_latency_ms_mean":
			meanMS, err = strconv.ParseFloat(val, 64)
			haveMean = err == nil
		}
		if err != nil {
			return 0, 0, fmt.Errorf("/metrics %s: %w", name, err)
		}
	}
	if !haveCount || !haveMean {
		return 0, 0, errors.New("/metrics: no run latency figures")
	}
	return runs, meanMS, nil
}

// serveTotals pools the episodes of one pass.
type serveTotals struct {
	setups              durations
	all, cached, missed durations
	rawAll              durations // all, unscaled
	tiers               map[string]int
	instructions        uint64
	busy, rawBusy       time.Duration
	host                hostCounters
	runs                int
	runMSSum            float64 // Σ per-episode mean × runs
	payloads            map[int][]byte
	episodes            int
}

// refGap is how many host reference samples are taken between two
// episodes; an episode's scale factor is the median of the gaps on
// either side of it.
const refGap = 4

// servePass runs episodes until more(ep, elapsed) is false and checks
// every reply: status 200, a known X-Cache tier, the conservation checks
// on the first payload of each key, and byte-identical payloads for the
// key on every later reply, whichever tier served it. With scale set,
// every time is scaled to the reference host speed.
func servePass(cfg runConfig, rep *report, spans *spanRecorder, scale bool, more func(ep int, elapsed time.Duration) bool) *serveTotals {
	universe := serveUniverse()
	bodies := make([][]byte, len(universe))
	for i, u := range universe {
		b, err := json.Marshal(u)
		if err != nil {
			panic(err) // RunRequest is plain data
		}
		bodies[i] = b
	}
	t := &serveTotals{tiers: map[string]int{}, payloads: map[int][]byte{}}
	ref := newHostRef()
	gap := func() {
		for range refGap {
			ref.sample()
		}
	}
	if scale {
		ref.warm()
		gap()
	}
	start := time.Now()
	for ep := 0; more(ep, time.Since(start)); ep++ {
		s := spans.start(fmt.Sprintf("episode-%d", ep), 0)
		e, err := serveEpisode(bodies, requestSequence(cfg.seed, ep, len(universe)), spans, s)
		spans.end(s)
		f := 1.0
		if scale {
			gap()
			f = ref.scaleOver(len(ref.samples)-2*refGap, len(ref.samples))
		}
		if err != nil {
			rep.fail("episode %d: %v", ep, err)
			continue
		}
		t.episodes++
		t.setups = append(t.setups, scaled(e.setup, f))
		t.busy += scaled(e.wall, f)
		t.rawBusy += e.wall
		t.host.cpu += scaled(e.host.cpu, f)
		t.host.alloc += e.host.alloc
		t.runs += e.runs
		t.runMSSum += e.runMSMean * float64(e.runs)
		for _, r := range e.replies {
			err := t.check(r, universe[r.key])
			rep.op(err)
			if err != nil {
				continue
			}
			t.tiers[r.tier]++
			lat := scaled(r.latency, f)
			t.all = append(t.all, lat)
			t.rawAll = append(t.rawAll, r.latency)
			if r.cached() {
				t.cached = append(t.cached, lat)
			} else {
				t.missed = append(t.missed, lat)
			}
			t.instructions += universe[r.key].Instructions
		}
	}
	return t
}

func (t *serveTotals) check(r reply, req server.RunRequest) error {
	if r.err != nil {
		return r.err
	}
	switch r.tier {
	case "hit", "store", "miss", "coalesced":
	default:
		return fmt.Errorf("key %d: unknown X-Cache %q", r.key, r.tier)
	}
	first, ok := t.payloads[r.key]
	if !ok {
		var res fgnvm.Result
		if err := json.Unmarshal(r.body, &res); err != nil {
			return fmt.Errorf("key %d: %w", r.key, err)
		}
		if err := checkResult(res, req.Instructions, 1); err != nil {
			return fmt.Errorf("key %d (%s/%s seed %d): %w", r.key, req.Design, req.Benchmark, req.Seed, err)
		}
		t.payloads[r.key] = r.body
		return nil
	}
	if !bytes.Equal(first, r.body) {
		return fmt.Errorf("key %d: %s payload differs from the first payload served for the key", r.key, r.tier)
	}
	return nil
}

// runServe measures serve-mixed: whole episodes until -seconds have
// passed, but at least three so that setup_s is a median. Times are
// scaled to the reference host speed (see hostref.go).
func runServe(cfg runConfig, rep *report) {
	limit := time.Duration(cfg.seconds) * time.Second
	t := servePass(cfg, rep, nil, true, func(ep int, elapsed time.Duration) bool {
		return ep < 3 || elapsed < limit
	})
	if t.episodes == 0 {
		return
	}
	minstr := float64(t.instructions) / 1e6
	n := len(t.all)
	rep.set("setup_s", medianSeconds(t.setups), fmt.Sprintf("(median of n=%d server starts)", len(t.setups)))
	rep.set("minstr_per_s", minstr/t.busy.Seconds(), fmt.Sprintf("(%.3f Minstr delivered by %d requests)", minstr, n))
	rep.setQuantile("run_p50_ms", t.all, 0.50, false)
	rep.setQuantile("run_p90_ms", t.all, 0.90, true)
	rep.set("cpu_s_per_minstr", t.host.cpu.Seconds()/minstr, fmt.Sprintf("(%.3f CPU s over %.3f wall s)", t.host.cpu.Seconds(), t.busy.Seconds()))
	rep.set("alloc_mb_per_minstr", float64(t.host.alloc)/1e6/minstr, fmt.Sprintf("(%.1f MB allocated)", float64(t.host.alloc)/1e6))
	rep.info("raw run_p50_ms = %.4f, run_p90_ms = %.4f, minstr_per_s = %.4f",
		t.rawAll.quantile(0.5), t.rawAll.quantile(0.9), minstr/t.rawBusy.Seconds())
	rep.info("serve.req_per_s = %.2f (n=%d in %d episodes)", float64(n)/t.busy.Seconds(), n, t.episodes)
	rep.info("serve.cached_p50_ms = %.4f, serve.cached_p99_ms = %.4f (n=%d, %d beyond p99)",
		t.cached.quantile(0.5), t.cached.quantile(0.99), len(t.cached), len(t.cached)-rank(0.99, len(t.cached)))
	rep.info("serve.miss_p50_ms = %.4f, serve.miss_p90_ms = %.4f (n=%d, %d beyond p90)",
		t.missed.quantile(0.5), t.missed.quantile(0.9), len(t.missed), len(t.missed)-rank(0.9, len(t.missed)))
	rep.info("tiers hit=%d store=%d miss=%d coalesced=%d", t.tiers["hit"], t.tiers["store"], t.tiers["miss"], t.tiers["coalesced"])
	rep.info("fail_frac = %d/%d", rep.failed, rep.attempted)
}
