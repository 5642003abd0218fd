// Command perfbench is the repository's benchmark. It drives the two
// end-to-end paths of the simulator — a library fgnvm.Run and a
// /v1/run request through the service's cache and store — on three
// workloads, checks that every output is correct, and prints each
// metric by name with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation attached. With -trace 1 a separate traced run
// captures each layer's input stream at its boundary, replays it into
// that layer alone, and reports the per-layer ledger (see README.md).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig4-lbm --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// workDir holds everything a run writes (store directories, spans),
// relative to the repository root the benchmark runs from.
var workDir = filepath.Join(".bench_build", "perfbench")

func main() {
	workload := flag.String("workload", "", "workload: fig4-lbm, mcf-2ch or serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	printDigests := flag.Bool("print-digests", false, "print the default-seed Result digests (for digests.json) and exit")
	flag.Parse()

	if *printDigests {
		if err := writeDigests(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	rep := newReport(*traced == 1)
	cfg := runConfig{workload: w.name, seed: *seed, seconds: *seconds}
	if *traced == 1 {
		rec := newSpans()
		ledger(cfg, rep, rec)
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := rec.write(path); err != nil {
			rep.fail("writing spans: %v", err)
		} else {
			fmt.Printf("# spans: %s\n", path)
		}
	} else {
		w.run(cfg, rep)
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runConfig is what every workload runner receives from the command line.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
}

// commit returns the VCS revision stamped into the binary, if any. A
// checkout without version control has none.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
