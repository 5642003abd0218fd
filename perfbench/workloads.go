package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	fgnvm "repro"
	"repro/internal/addr"
)

// workload is one benchmark input mix and the runner that measures it.
type workload struct {
	name string
	run  func(runConfig, *report)
}

var workloads = []workload{
	{"fig4-lbm", runLibrary},
	{"mcf-2ch", runLibrary},
	{"serve-mixed", runServe},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simsPerSeed is the length of a library workload's simulation list.
// A run cycles through the list; a finite list lets digests.json pin
// every default-seed Result.
const simsPerSeed = 16

// libInstructions is the per-core retire budget of the library
// workloads: the paper's 200 k-instruction slice.
const libInstructions = 200_000

// splitmix derives the i-th sub-seed of seed (SplitMix64), so that
// per-run seeds are spread and never zero.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)%(1<<31) + 1
}

// simulations returns the simulation list a library workload runs at a
// workload seed. Every entry is an untraced configuration: no telemetry
// and the library's own workload generator.
func simulations(workload string, seed uint64) []fgnvm.Options {
	sims := make([]fgnvm.Options, simsPerSeed)
	for i := range sims {
		o := fgnvm.Options{
			Design:       fgnvm.DesignFgNVM,
			SAGs:         8,
			CDs:          2,
			Instructions: libInstructions,
			Seed:         splitmix(seed, uint64(i)),
		}
		switch workload {
		case "fig4-lbm":
			o.Benchmark = "lbm"
		case "mcf-2ch":
			g := addr.PaperGeometry()
			g.Channels = 2
			o.Benchmark, o.Cores, o.Geometry = "mcf", 2, &g
		default:
			panic("perfbench: not a library workload: " + workload)
		}
		sims[i] = o
	}
	return sims
}

// cores returns how many cores a configuration runs.
func cores(o fgnvm.Options) int { return max(o.Cores, 1, len(o.Streams)) }

// checkResult applies the conservation checks every Result must meet:
// every core retired exactly its budget, the run ended before the
// MaxCycles backstop, and the NVM energy parts sum to the total.
func checkResult(res fgnvm.Result, instructions uint64, nCores int) error {
	if want := instructions * uint64(nCores); res.Instructions != want {
		return fmt.Errorf("retired %d instructions, want %d", res.Instructions, want)
	}
	if res.Cycles == 0 || res.Cycles >= 2_000_000_000 {
		return fmt.Errorf("cycles %d outside (0, MaxCycles)", res.Cycles)
	}
	e := res.Energy
	if sum := e.ReadPJ + e.WritePJ + e.BackgroundPJ; math.Abs(sum-e.TotalPJ) > 1e-9*math.Max(1, e.TotalPJ) {
		return fmt.Errorf("energy parts sum to %g pJ, total is %g pJ", sum, e.TotalPJ)
	}
	return nil
}

// digest is the Result's identity: a hash of its JSON encoding.
func digest(res fgnvm.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // Result is plain data
	}
	return hashBytes(b)
}

func hashBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:12])
}

// hostCounters snapshots the process's CPU time and cumulative heap
// allocation, so a measured section can be charged with both.
type hostCounters struct {
	cpu   time.Duration
	alloc uint64
}

func readHost() hostCounters {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(alloc)
	return hostCounters{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: alloc[0].Value.Uint64(),
	}
}

// sub returns the counters accumulated between b and h.
func (h hostCounters) sub(b hostCounters) hostCounters {
	return hostCounters{cpu: h.cpu - b.cpu, alloc: h.alloc - b.alloc}
}
