package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"time"

	fgnvm "repro"
)

// digests.json pins the Result of every simulation a library workload
// runs at defaultSeed. Regenerate it with -print-digests only when the
// model's output is meant to change.
//
//go:embed digests.json
var digestsJSON []byte

const defaultSeed = 1

// setupEvery spaces the set-up samples through the timed loop: every
// setupEvery-th run is preceded by a 1-instruction run of the same
// Options, which is construction plus LLC warm-up and nothing else.
// setup_s is their median.
const setupEvery = 8

// minTimedOps is the fewest timed operations a run collects, so that the
// p90 has ten samples beyond it. A run on a slow host measures past
// -seconds to reach it, but never past three times -seconds.
const minTimedOps = 100

// committedDigests returns the pinned digests of a workload's
// default-seed simulation list.
func committedDigests(workload string) ([]string, error) {
	var all map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	d := all[workload]
	if len(d) != simsPerSeed {
		return nil, fmt.Errorf("digests.json: %s has %d digests, want %d", workload, len(d), simsPerSeed)
	}
	return d, nil
}

// writeDigests prints the default-seed digests of both library
// workloads in digests.json's format.
func writeDigests(w io.Writer) error {
	all := map[string][]string{}
	for _, name := range []string{"fig4-lbm", "mcf-2ch"} {
		for _, o := range simulations(name, defaultSeed) {
			res, err := fgnvm.Run(o)
			if err != nil {
				return err
			}
			all[name] = append(all[name], digest(res))
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// resultChecker verifies every Result of one simulation list: the
// conservation checks, run-to-run determinism of each entry and, at the
// default seed, the committed digest.
type resultChecker struct {
	sims   []fgnvm.Options
	pinned []string // nil unless the seed is defaultSeed
	seen   []string
}

func newResultChecker(sims []fgnvm.Options, seed uint64, workload string) (*resultChecker, error) {
	c := &resultChecker{sims: sims, seen: make([]string, len(sims))}
	if seed == defaultSeed {
		d, err := committedDigests(workload)
		if err != nil {
			return nil, err
		}
		c.pinned = d
	}
	return c, nil
}

func (c *resultChecker) check(i int, res fgnvm.Result, err error) error {
	// The run seed in every message makes a failure reproducible with a
	// single fgnvm.Run of the workload's Options.
	o := c.sims[i]
	if err != nil {
		return fmt.Errorf("sim %d (run seed %d): %w", i, o.Seed, err)
	}
	if err := checkResult(res, o.Instructions, cores(o)); err != nil {
		return fmt.Errorf("sim %d (run seed %d): %w", i, o.Seed, err)
	}
	d := digest(res)
	switch {
	case c.seen[i] != "" && c.seen[i] != d:
		return fmt.Errorf("sim %d (run seed %d): Result digest %s differs from an earlier run's %s", i, o.Seed, d, c.seen[i])
	case c.pinned != nil && c.pinned[i] != d:
		return fmt.Errorf("sim %d (run seed %d): Result digest %s differs from the committed %s", i, o.Seed, d, c.pinned[i])
	}
	c.seen[i] = d
	return nil
}

// runLibrary measures a library workload: repeated fgnvm.Run calls over
// its simulation list, with nothing attached.
func runLibrary(cfg runConfig, rep *report) {
	sims := simulations(cfg.workload, cfg.seed)
	chk, err := newResultChecker(sims, cfg.seed, cfg.workload)
	if err != nil {
		rep.fail("%v", err)
		return
	}

	ref := newHostRef()
	ref.warm()

	// One untimed run lets lazy process set-up finish before timing.
	res, err := fgnvm.Run(sims[0])
	rep.op(chk.check(0, res, err))

	// The timed loop. Each run is followed by one reference sample.
	type op struct {
		wall, cpu time.Duration
		sample    int
	}
	var ops, setupOps []op
	var alloc, instructions uint64
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	hardStop := start.Add(3 * time.Duration(cfg.seconds) * time.Second)
	for i := 0; ; i++ {
		now := time.Now()
		if now.After(hardStop) || (now.After(deadline) && len(ops) >= minTimedOps) {
			break
		}
		k := i % len(sims)
		var setup time.Duration
		if i%setupEvery == 0 {
			o := sims[k]
			o.Instructions = 1
			t0 := time.Now()
			res, err := fgnvm.Run(o)
			setup = time.Since(t0)
			if err == nil {
				err = checkResult(res, 1, cores(o))
			}
			rep.op(err)
		}
		h0 := readHost()
		t0 := time.Now()
		res, err := fgnvm.Run(sims[k])
		wall := time.Since(t0)
		h := readHost().sub(h0)
		ref.sample()
		err = chk.check(k, res, err)
		rep.op(err)
		if err != nil {
			continue
		}
		ops = append(ops, op{wall, h.cpu, len(ref.samples) - 1})
		if setup > 0 {
			setupOps = append(setupOps, op{setup, 0, len(ref.samples) - 1})
		}
		alloc += h.alloc
		instructions += res.Instructions
	}

	var setups, rawSetups durations
	for _, o := range setupOps {
		setups = append(setups, scaled(o.wall, ref.scaleAt(o.sample)))
		rawSetups = append(rawSetups, o.wall)
	}
	var walls, rawWalls durations
	var busy, rawBusy, cpu, rawCPU time.Duration
	for _, o := range ops {
		f := ref.scaleAt(o.sample)
		walls = append(walls, scaled(o.wall, f))
		rawWalls = append(rawWalls, o.wall)
		busy += scaled(o.wall, f)
		rawBusy += o.wall
		cpu += scaled(o.cpu, f)
		rawCPU += o.cpu
	}
	minstr := float64(instructions) / 1e6
	rep.set("setup_s", medianSeconds(setups), fmt.Sprintf("(median of n=%d 1-instruction runs; raw %.6f s)", len(setups), medianSeconds(rawSetups)))
	rep.set("minstr_per_s", minstr/busy.Seconds(), fmt.Sprintf("(%.3f Minstr in %d runs; raw %.4f)", minstr, len(ops), minstr/rawBusy.Seconds()))
	rep.setQuantile("run_p50_ms", walls, 0.50, false)
	rep.setQuantile("run_p90_ms", walls, 0.90, true)
	rep.set("cpu_s_per_minstr", cpu.Seconds()/minstr, fmt.Sprintf("(raw %.3f CPU s over %.3f wall s)", rawCPU.Seconds(), rawBusy.Seconds()))
	rep.set("alloc_mb_per_minstr", float64(alloc)/1e6/minstr, fmt.Sprintf("(%.1f MB allocated; not scaled)", float64(alloc)/1e6))
	rep.info("raw run_p50_ms = %.4f, run_p90_ms = %.4f; host reference median %.3f ms (nominal %v)",
		rawWalls.quantile(0.5), rawWalls.quantile(0.9), durations(ref.samples).quantile(0.5), refNominal)
	rep.info("fail_frac = %d/%d", rep.failed, rep.attempted)
}
