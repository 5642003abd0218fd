package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"time"

	fgnvm "repro"
	"repro/internal/addr"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/timing"
	"repro/internal/trace"
)

// The traced run. Each layer is timed from outside: the benchmark runs
// one representative simulation with recording streams and a
// telemetry.Sink attached, captures the stream crossing each layer
// boundary, and replays that stream into the layer alone — the access
// stream into trace generators and the LLC, the ReqEnqueued stream into
// a standalone controller and event engine, the Command stream into
// bare banks. A replay must reproduce what it captured; otherwise its
// layer's metrics are reported as failed.

// replays is how often each replay is timed; the ledger uses medians.
const replays = 5

// warmAccesses mirrors fgnvm.Run's default LLC warm-up: twice the LLC's
// line count, taken from the head of each core's stream.
const warmAccesses = 2 * (2 << 20) / 64

// ledger runs the traced run of one workload and reports every
// per-layer metric.
func ledger(cfg runConfig, rep *report, spans *spanRecorder) {
	var o fgnvm.Options
	var payloads []keyed
	var serveEpisodes int
	if cfg.workload == "serve-mixed" {
		serveEpisodes = 2
	} else {
		// The library workloads' own runs, traced, give the store its
		// payloads; the service ledger uses one episode of the serve mix.
		sims := simulations(cfg.workload, cfg.seed)
		chk, err := newResultChecker(sims, cfg.seed, cfg.workload)
		if err != nil {
			rep.fail("%v", err)
			return
		}
		runs := spans.start("runs", 0)
		for i, s := range sims {
			id := spans.start("run", runs)
			res, err := fgnvm.Run(s)
			spans.end(id)
			err = chk.check(i, res, err)
			rep.op(err)
			if err == nil {
				b, _ := json.Marshal(res) // plain data; checked by digest above
				payloads = append(payloads, keyed{fmt.Sprintf("%s/%d/%d", cfg.workload, cfg.seed, i), b})
			}
		}
		spans.end(runs)
		o = sims[0]
		serveEpisodes = 1
	}

	st := servePass(cfg, rep, spans, false, func(ep int, _ time.Duration) bool { return ep < serveEpisodes })
	serverLedger(rep, st)
	if cfg.workload == "serve-mixed" {
		universe := serveUniverse()
		for k, b := range st.payloads {
			payloads = append(payloads, keyed{fmt.Sprintf("run/%d", k), b})
		}
		slices.SortFunc(payloads, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
		o = representative(universe, requestSequence(cfg.seed, 0, len(universe)))
	}
	storeLedger(rep, spans, payloads)
	simLedger(rep, spans, o)
}

// keyed is one store entry.
type keyed struct {
	key string
	val []byte
}

// representative picks serve-mixed's replayed simulation: the FgNVM key
// requested most often in the first episode.
func representative(universe []server.RunRequest, seq []int) fgnvm.Options {
	count := map[int]int{}
	best := -1
	for _, k := range seq {
		if universe[k].Design != "fgnvm" {
			continue
		}
		count[k]++
		if best < 0 || count[k] > count[best] || (count[k] == count[best] && k < best) {
			best = k
		}
	}
	r := universe[best]
	return fgnvm.Options{Design: fgnvm.DesignFgNVM, Benchmark: r.Benchmark, Seed: r.Seed, Instructions: r.Instructions}
}

func serverLedger(rep *report, t *serveTotals) {
	n := float64(len(t.all))
	if n == 0 || t.runs == 0 {
		rep.fail("server ledger: no answered requests")
		return
	}
	note := fmt.Sprintf("(n=%d requests, %d episodes)", len(t.all), t.episodes)
	rep.set("server.mem_hit_ratio", float64(t.tiers["hit"])/n, note)
	rep.set("server.store_hit_ratio", float64(t.tiers["store"])/n, note)
	rep.set("server.coalesced_frac", float64(t.tiers["coalesced"])/n, note)
	runMS := t.runMSSum / float64(t.runs)
	rep.set("server.run_ms_mean", runMS, fmt.Sprintf("(/metrics mean of n=%d runs, whole ms each)", t.runs))
	var sum time.Duration
	for _, d := range t.missed {
		sum += d
	}
	missMS := float64(sum) / 1e6 / float64(len(t.missed))
	rep.set("server.miss_overhead_ms", missMS-runMS, fmt.Sprintf("(mean miss %.3f ms of n=%d minus mean run)", missMS, len(t.missed)))
}

func storeLedger(rep *report, spans *spanRecorder, entries []keyed) {
	id := spans.start("replay.store", 0)
	defer spans.end(id)
	dir, err := os.MkdirTemp(workDir, "store-replay-")
	if err != nil {
		rep.fail("store replay: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		rep.fail("store replay: %v", err)
		return
	}
	var puts, gets durations
	for _, e := range entries {
		t0 := time.Now()
		err := st.Put(e.key, e.val)
		puts = append(puts, time.Since(t0))
		rep.op(err)
	}
	for _, e := range entries {
		t0 := time.Now()
		b, ok := st.Get(e.key)
		gets = append(gets, time.Since(t0))
		if !ok || !bytes.Equal(b, e.val) {
			rep.op(fmt.Errorf("store replay: %q did not read back what was put", e.key))
			return
		}
		rep.op(nil)
	}
	rep.setQuantile("store.put_ms_p50", puts, 0.5, false)
	rep.setQuantile("store.get_ms_p50", gets, 0.5, false)
}

// replayGeometry is the geometry an FgNVM configuration resolves to.
func replayGeometry(o fgnvm.Options) addr.Geometry {
	g := addr.PaperGeometry()
	if o.Geometry != nil {
		g = *o.Geometry
	}
	g.SAGs, g.CDs = 8, 2 // fgnvm.Options defaults
	if o.SAGs != 0 {
		g.SAGs = o.SAGs
	}
	if o.CDs != 0 {
		g.CDs = o.CDs
	}
	return g
}

// libraryStreams builds the per-core access streams fgnvm.Run builds for
// a Benchmark configuration: differently seeded generators, 512 MiB
// apart. The traced run checks that they reproduce the untraced Result.
func libraryStreams(o fgnvm.Options, g addr.Geometry) []trace.Stream {
	p, ok := trace.ProfileByName(o.Benchmark)
	if !ok {
		panic("perfbench: unknown benchmark " + o.Benchmark)
	}
	streams := make([]trace.Stream, cores(o))
	for i := range streams {
		var s trace.Stream = trace.NewGenerator(p, g.LineBytes, g.RowBytes(), o.Seed+uint64(i)*0x9e3779b9)
		if i > 0 {
			s = trace.NewOffset(s, uint64(i)<<29)
		}
		streams[i] = s
	}
	return streams
}

// recStream records every access a core pulls from its stream.
type recStream struct {
	src trace.Stream
	log []trace.Access
}

func (r *recStream) Next() (trace.Access, bool) {
	a, ok := r.src.Next()
	if ok {
		r.log = append(r.log, a)
	}
	return a, ok
}

// capture is the telemetry.Sink of the traced simulation. It keeps the
// request and command streams and counts rejected enqueue attempts.
type capture struct {
	streams  []*recStream
	enqueued []telemetry.RequestEvent
	done     []telemetry.RequestEvent
	commands []telemetry.Command
	rejects  uint64
}

func (c *capture) Command(ev telemetry.Command) {
	if ev.Kind != telemetry.CmdBus {
		c.commands = append(c.commands, ev)
	}
}

func (c *capture) Request(ev telemetry.RequestEvent) {
	switch ev.Phase {
	case telemetry.ReqEnqueued:
		c.enqueued = append(c.enqueued, ev)
	case telemetry.ReqCompleted:
		c.done = append(c.done, ev)
	}
}

func (c *capture) Stall(ev telemetry.StallEvent) {
	if ev.Cause == telemetry.StallQueueFull {
		c.rejects += max(ev.N, 1)
	}
}

// simLedger measures the simulator's layers on one configuration.
func simLedger(rep *report, spans *spanRecorder, o fgnvm.Options) {
	root := spans.start("layers", 0)
	defer spans.end(root)
	g := replayGeometry(o)
	fmt.Printf("# replayed simulation: %s %s seed=%d instructions=%d cores=%d channels=%d\n",
		o.Design, o.Benchmark, o.Seed, o.Instructions, cores(o), g.Channels)

	// Untraced reference: wall time and CPU per wall second.
	var walls durations
	var busy, cpuTime time.Duration
	var ref fgnvm.Result
	for i := 0; i < replays; i++ {
		id := spans.start("untraced", root)
		h0 := readHost()
		t0 := time.Now()
		res, err := fgnvm.Run(o)
		wall := time.Since(t0)
		h := readHost().sub(h0)
		spans.end(id)
		if err == nil {
			err = checkResult(res, o.Instructions, cores(o))
		}
		rep.op(err)
		if err != nil {
			return
		}
		walls, busy, cpuTime, ref = append(walls, wall), busy+wall, cpuTime+h.cpu, res
	}
	wall := float64(walls.quantile(0.5)) * 1e6 // ns

	// The traced run: recording streams and the capture sink.
	c := &capture{}
	t := o
	t.Benchmark, t.Streams = "", nil
	for _, s := range libraryStreams(o, g) {
		rs := &recStream{src: s}
		c.streams = append(c.streams, rs)
		t.Streams = append(t.Streams, rs)
	}
	t.Telemetry = &fgnvm.TelemetryOptions{Sink: c}
	id := spans.start("traced", root)
	t0 := time.Now()
	res, err := fgnvm.Run(t)
	tracedWall := time.Since(t0)
	spans.end(id)
	if err == nil && (res.Cycles != ref.Cycles || res.Reads != ref.Reads || res.Writes != ref.Writes || res.Instructions != ref.Instructions) {
		err = fmt.Errorf("traced run gave cycles/reads/writes %d/%d/%d, untraced %d/%d/%d",
			res.Cycles, res.Reads, res.Writes, ref.Cycles, ref.Reads, ref.Writes)
	}
	rep.op(err)
	if err != nil {
		return
	}
	rep.set("trace.overhead", float64(tracedWall)/wall, fmt.Sprintf("(traced %.3f ms / untraced median %.3f ms)", float64(tracedWall)/1e6, wall/1e6))

	kinstr := float64(ref.Instructions) / 1e3
	requests := float64(len(c.enqueued))
	var accesses int
	for _, s := range c.streams {
		accesses += len(s.log)
	}
	shares := map[string]float64{}

	// trace: regenerate every captured access.
	if ds, err := timeReplays(spans, root, "replay.trace", func() ([]time.Duration, error) {
		d, err := replayTrace(o, g, c)
		return []time.Duration{d}, err
	}); rep.replayed("trace", err) {
		d := ds[0]
		shares["trace"] = float64(d) / wall
		rep.set("trace.ns_per_access", float64(d)/float64(accesses), fmt.Sprintf("(%d accesses, median of %d)", accesses, replays))
		rep.set("trace.accesses_per_kinstr", float64(accesses-warmAccesses*len(c.streams))/kinstr, "(after warm-up)")
	}

	// cpu: the LLC, fed the captured accesses; its miss and writeback
	// stream must match the requests the controller saw.
	mapper, err := addr.NewMapper(g, addr.RowBankRankChanCol)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	var lr llcReplay
	if ds, err := timeReplays(spans, root, "replay.cpu", func() ([]time.Duration, error) {
		var err error
		lr, err = replayLLC(c, mapper)
		return []time.Duration{lr.total, lr.warm}, err
	}); rep.replayed("cpu", err) {
		d := ds[0]
		post := float64(accesses - warmAccesses*len(c.streams))
		shares["cpu"] = float64(d) / wall
		rep.set("cpu.llc_ns_per_access", float64(d)/float64(accesses), fmt.Sprintf("(%d accesses, median of %d)", accesses, replays))
		rep.set("cpu.llc_hit_ratio", float64(lr.hits)/post, "(after warm-up)")
		rep.set("cpu.llc_writebacks_per_kinstr", float64(lr.writebacks)/kinstr, "(after warm-up)")
		rep.set("cpu.warmup_ms", float64(ds[1])/1e6, fmt.Sprintf("(%d accesses per core)", warmAccesses))
	}

	// core: bare banks fed the captured command stream.
	var commands int
	coreDs, coreErr := timeReplays(spans, root, "replay.core", func() ([]time.Duration, error) {
		var d time.Duration
		var err error
		d, commands, err = replayCore(c, g)
		return []time.Duration{d}, err
	})
	var coreT time.Duration
	if rep.replayed("core", coreErr) {
		coreT = coreDs[0]
		shares["core"] = float64(coreT) / wall
		rep.set("core.ns_per_command", float64(coreT)/float64(commands), fmt.Sprintf("(%d commands, median of %d)", commands, replays))
		rep.set("core.commands_per_request", float64(commands)/requests, "")
		rep.set("core.segment_hit_ratio", float64(ref.SegmentHits)/float64(ref.Reads), "(of reads)")
		rep.set("core.backgrounded_read_frac", float64(ref.BackgroundedRds)/float64(ref.Reads), "(of reads)")
	}

	// controller + sim: a standalone controller and engine fed the
	// ReqEnqueued stream at the recorded ticks.
	var cr ctrlReplay
	ctrlDs, err := timeReplays(spans, root, "replay.controller", func() ([]time.Duration, error) {
		var err error
		cr, err = replayController(c, g, mapper, ref)
		return []time.Duration{cr.total, cr.sim}, err
	})
	if rep.replayed("controller", err) && coreErr == nil {
		ctrlT, simT := ctrlDs[0], ctrlDs[1]
		self := float64(ctrlT-simT) - float64(coreT)
		shares["controller"] = self / wall
		shares["sim"] = float64(simT) / wall
		rep.set("controller.ns_per_cycle", self/float64(ref.Cycles), fmt.Sprintf("(%d cycles; replay minus engine and bank time)", ref.Cycles))
		rep.set("controller.ns_per_request", self/requests, fmt.Sprintf("(%d requests)", len(c.enqueued)))
		rep.set("controller.queued_wait_cycles_per_request", float64(cr.queuedWait)/requests, "")
		rep.set("controller.rejects_per_request", float64(c.rejects)/requests, "(rejected enqueue attempts)")
		rep.set("sim.ns_per_event", float64(simT)/float64(cr.events), fmt.Sprintf("(%d events; Engine.RunUntil on ticks with events due)", cr.events))
		rep.set("sim.events_per_request", float64(cr.events)/requests, "")
	}

	if len(shares) == 5 {
		glue := 1.0
		for _, l := range []string{"trace", "cpu", "controller", "core", "sim"} {
			rep.set(l+".share", shares[l], fmt.Sprintf("(of untraced wall %.3f ms)", wall/1e6))
			glue -= shares[l]
		}
		rep.set("glue.share", glue, "(run loop, CPU core model and fast-forward probes)")
	} else {
		rep.fail("layer shares need every replay to pass")
	}

	parallelLedger(rep, spans, root, o, ref, busy, cpuTime)
}

// replayed reports whether a layer's replay passed, failing the run
// with the layer's name otherwise.
func (r *report) replayed(layer string, err error) bool {
	r.op(err)
	if err != nil {
		fmt.Printf("FAIL %s metrics are not reported: replay did not reproduce the capture\n", layer)
		return false
	}
	return true
}

// timeReplays runs a replay `replays` times and returns the parts of the
// repetition whose first part is the median, or the first error.
func timeReplays(spans *spanRecorder, parent int, name string, replay func() ([]time.Duration, error)) ([]time.Duration, error) {
	var runs [][]time.Duration
	for i := 0; i < replays; i++ {
		id := spans.start(name, parent)
		parts, err := replay()
		spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		runs = append(runs, parts)
	}
	slices.SortFunc(runs, func(a, b []time.Duration) int { return cmp.Compare(a[0], b[0]) })
	return runs[len(runs)/2], nil
}

// replayTrace regenerates every access the traced run consumed and
// checks that the generators reproduce them.
func replayTrace(o fgnvm.Options, g addr.Geometry, c *capture) (time.Duration, error) {
	streams := libraryStreams(o, g)
	out := make([][]trace.Access, len(streams))
	for i := range out {
		out[i] = make([]trace.Access, len(c.streams[i].log))
	}
	t0 := time.Now()
	for i, s := range streams {
		for j := range out[i] {
			out[i][j], _ = s.Next()
		}
	}
	d := time.Since(t0)
	for i := range out {
		if !slices.Equal(out[i], c.streams[i].log) {
			return 0, fmt.Errorf("core %d: regenerated accesses differ from the captured stream", i)
		}
	}
	return d, nil
}

// memReq is one request the LLC sends to memory.
type memReq struct {
	addr  uint64
	write bool
}

// llcReplay is what one LLC replay measured, after warm-up except for
// the times.
type llcReplay struct {
	total, warm      time.Duration
	hits, writebacks uint64
}

// replayLLC feeds each core's captured accesses into a fresh LLC. The
// misses and writebacks it produces must begin with exactly the requests
// the controller accepted from that core; the rest come from accesses
// the core had fetched or looked ahead to but not sent when it finished.
func replayLLC(c *capture, mapper *addr.Mapper) (llcReplay, error) {
	var lr llcReplay
	sent := make([][]memReq, len(c.streams))
	for _, ev := range c.enqueued {
		a := mapper.Encode(ev.Loc)
		i := int(a >> 29) // the core's 512 MiB region
		if i >= len(sent) {
			return lr, fmt.Errorf("request address %#x outside every core's region", a)
		}
		sent[i] = append(sent[i], memReq{a, ev.Write})
	}
	for i, s := range c.streams {
		llc, err := cpu.NewLLC(cpu.LLCConfig{})
		if err != nil {
			return lr, err
		}
		out := make([]memReq, 0, 2*len(s.log))
		t0 := time.Now()
		for _, a := range s.log[:warmAccesses] {
			llc.Access(a.Addr, a.Write)
		}
		warm := time.Since(t0)
		hits, wbs := llc.Hits(), llc.Writebacks()
		for _, a := range s.log[warmAccesses:] {
			r := llc.Access(a.Addr, a.Write)
			if !r.Miss {
				continue
			}
			if r.HasWriteback {
				out = append(out, memReq{r.Writeback, true})
			}
			out = append(out, memReq{a.Addr, false})
		}
		lr.total += time.Since(t0)
		lr.warm += warm
		lr.hits += llc.Hits() - hits
		lr.writebacks += llc.Writebacks() - wbs
		if len(out) < len(sent[i]) || !slices.Equal(out[:len(sent[i])], sent[i]) {
			return lr, fmt.Errorf("core %d: the %d requests the controller accepted are not how the LLC's %d requests begin", i, len(sent[i]), len(out))
		}
	}
	return lr, nil
}

// replayCore issues every captured command on bare banks at its
// recorded tick. Each must be legal there and end when it ended in the
// simulation.
func replayCore(c *capture, g addr.Geometry) (time.Duration, int, error) {
	banks := make([]*core.Bank, g.Channels*g.Ranks*g.Banks)
	for i := range banks {
		b, err := core.NewBank(core.Config{
			Geom: g, Tim: timing.Paper(), Modes: core.AllModes(),
			WriteDrivers: 512, // the controller's default: a line in one pulse
		})
		if err != nil {
			return 0, 0, err
		}
		banks[i] = b
	}
	bad := -1
	t0 := time.Now()
	for i, cmd := range c.commands {
		b := banks[(cmd.Bank.Channel*g.Ranks+cmd.Bank.Rank)*g.Banks+cmd.Bank.Bank]
		switch cmd.Kind {
		case telemetry.CmdActivate:
			if !b.CanActivate(cmd.Row, cmd.Col, cmd.Start) {
				bad = i
			} else {
				b.Activate(cmd.Row, cmd.Col, cmd.Start)
			}
		case telemetry.CmdRead:
			if !b.CanRead(cmd.Row, cmd.Col, cmd.Start) || b.Read(cmd.Row, cmd.Col, cmd.Start) != cmd.End {
				bad = i
			}
		case telemetry.CmdWrite:
			if !b.CanWrite(cmd.Row, cmd.Col, cmd.Start) || b.Write(cmd.Row, cmd.Col, cmd.Start) != cmd.End {
				bad = i
			}
		}
		if bad >= 0 {
			break
		}
	}
	d := time.Since(t0)
	if bad >= 0 {
		return 0, 0, fmt.Errorf("command %d (%+v) is not reproduced by a bare bank", bad, c.commands[bad])
	}
	return d, len(c.commands), nil
}

// ctrlReplay is what one controller replay measured.
type ctrlReplay struct {
	total, sim time.Duration
	events     int
	queuedWait uint64
}

// replayController drives a standalone controller and engine the way
// the serial run loop does — engine events, then the tick's enqueues,
// then one controller cycle, skipping provably idle stretches — with the
// captured ReqEnqueued stream as the only input. Every request must
// complete at its captured tick.
func replayController(c *capture, g addr.Geometry, mapper *addr.Mapper, ref fgnvm.Result) (ctrlReplay, error) {
	var cr ctrlReplay
	eng := sim.NewEngine()
	ctrl, err := controller.New(controller.Config{
		Geom: g, Tim: timing.Paper(), Modes: core.AllModes(),
		Scheduler: controller.FRFCFS, IssueLanes: 1, Interleave: addr.RowBankRankChanCol,
	}, eng)
	if err != nil {
		return cr, err
	}
	type reqKey struct {
		id, addr uint64
		arrive   sim.Tick
	}
	want := make(map[reqKey]sim.Tick, len(c.done))
	for _, ev := range c.done {
		want[reqKey{ev.ID, mapper.Encode(ev.Loc), ev.Arrive}] = ev.Now
	}
	reqs := make([]mem.Request, len(c.enqueued))
	for i, ev := range c.enqueued {
		reqs[i] = mem.Request{ID: ev.ID, Addr: mapper.Encode(ev.Loc)}
		if ev.Write {
			reqs[i].Op = mem.Write
		}
	}
	overhead := timerCost()

	timed := 0
	next := 0
	t0 := time.Now()
	for now := sim.Tick(0); ; now++ {
		if now >= ref.Cycles+1 {
			return cr, fmt.Errorf("replay passed the simulation's last cycle %d without draining", ref.Cycles)
		}
		if eng.NextEventTick() <= now {
			s := time.Now()
			cr.events += eng.RunUntil(now)
			cr.sim += time.Since(s)
			timed++
		} else {
			eng.RunUntil(now)
		}
		for ; next < len(reqs) && c.enqueued[next].Now == now; next++ {
			if !ctrl.Enqueue(&reqs[next], now) {
				return cr, fmt.Errorf("request %d rejected at tick %d", next, now)
			}
		}
		issued := ctrl.Cycle(now)
		if next == len(reqs) && ctrl.Drained() {
			break
		}
		if issued != 0 {
			continue
		}
		target := eng.NextEventTick()
		if next < len(reqs) {
			target = min(target, c.enqueued[next].Now)
		}
		target = min(target, ctrl.NextWork(now))
		if target > now+1 && target != sim.MaxTick {
			ctrl.SkipCycles(now, uint64(target-now-1))
			now = target - 1
		}
	}
	cr.total = time.Since(t0)
	// About half of each timer pair falls inside the interval it times;
	// all of it falls inside the whole loop.
	cr.sim = max(cr.sim-time.Duration(timed)*overhead/2, 0)
	cr.total = max(cr.total-time.Duration(timed)*overhead, 0)

	for i := range reqs {
		r := &reqs[i]
		w, ok := want[reqKey{r.ID, r.Addr, r.Arrive}]
		if !r.Done() || !ok || r.Complete != w {
			return cr, fmt.Errorf("request %d (id %d) completed at %d, captured %d (found %v)", i, r.ID, r.Complete, w, ok)
		}
	}
	st := ctrl.Stats()
	if st.Reads.Value() != ref.Reads || st.Writes.Value() != ref.Writes {
		return cr, fmt.Errorf("replay completed %d reads and %d writes, the simulation %d and %d",
			st.Reads.Value(), st.Writes.Value(), ref.Reads, ref.Writes)
	}
	cr.queuedWait = st.QueuedWaitCycles.Value()
	return cr, nil
}

// timerCost estimates what one time.Now/time.Since pair adds to a timed
// interval, so that timing many short calls does not inflate them.
func timerCost() time.Duration {
	const n = 10000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		_ = time.Since(s)
	}
	return time.Since(t0) / n
}

// parallelLedger reads the parallel engine's counters. They are looked
// up by field name at run time, so a build without the engine reports
// them absent instead of failing to compile.
func parallelLedger(rep *report, spans *spanRecorder, parent int, o fgnvm.Options, ref fgnvm.Result, busy, cpuTime time.Duration) {
	rep.set("parallel.cpu_per_wall", cpuTime.Seconds()/busy.Seconds(), fmt.Sprintf("(%.3f CPU s over %.3f wall s, %d untraced runs)", cpuTime.Seconds(), busy.Seconds(), replays))
	names := []string{"parallel.windows_per_kcycle", "parallel.mean_width", "parallel.local_delivery_frac"}
	flag := reflect.ValueOf(&o).Elem().FieldByName("EngineStats")
	if !flag.IsValid() || flag.Kind() != reflect.Bool {
		for _, n := range names {
			rep.absent(n, "fgnvm.Options has no EngineStats field")
		}
		return
	}
	flag.SetBool(true)
	id := spans.start("engine-stats", parent)
	res, err := fgnvm.Run(o)
	spans.end(id)
	rep.op(err)
	if err != nil {
		return
	}
	eng := reflect.ValueOf(res).FieldByName("Engine")
	if !eng.IsValid() || eng.Kind() != reflect.Pointer {
		for _, n := range names {
			rep.absent(n, "fgnvm.Result has no Engine block")
		}
		return
	}
	field := func(name string) float64 {
		if eng.IsNil() {
			return 0 // the serial loop ran: no windows
		}
		f := eng.Elem().FieldByName(name)
		switch {
		case f.CanUint():
			return float64(f.Uint())
		case f.CanFloat():
			return f.Float()
		}
		rep.fail("EngineStats.%s is not a number", name)
		return 0
	}
	note := "(engine ran)"
	if eng.IsNil() {
		note = "(serial loop ran: no windows)"
	}
	rep.set(names[0], field("Windows")/(float64(ref.Cycles)/1e3), note)
	rep.set(names[1], field("MeanWidth"), note)
	rep.set(names[2], field("LocalDeliveries")/float64(ref.Reads+ref.Writes), note+" (of completions)")
}
