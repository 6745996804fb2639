// Command perfbench is the repository's benchmark. It drives live
// LOCUS clusters through the public locus API with workloads generated
// from a seed, checks every output against a model of its own, and
// prints the end-to-end metrics (untraced) or the per-layer metrics
// (traced) as one JSON object on the last line of standard output.
//
//	perfbench --workload remote-scan --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	ops      int
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "remote-scan, replicated-edit, dir-churn, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measure for at least this many seconds (whole rounds)")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.IntVar(&cfg.ops, "ops", 0, "ops per round (0: the workload's default)")
	flag.Parse()
	cfg.trace = traceFlag != 0

	if cfg.workload == "all" {
		os.Exit(runAll())
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.ops <= 0 {
		cfg.ops = w.ops
	}
	// One op is outstanding at a time, so the cluster's goroutines
	// mostly hand work to each other. On two cores those hand-offs
	// cross cores, and whole runs landed in one of two speeds 25%
	// apart; on one P the runs are faster and steady (README).
	runtime.GOMAXPROCS(1)
	os.Exit(runOne(cfg, w))
}

// runAll runs every workload in a process of its own, so each reports
// its own peak memory, and returns non-zero if any of them failed.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"--workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runOne(cfg config, w *workload) int {
	r := &run{}
	if cfg.trace {
		r.tr = newTracer()
	}
	play := w.plan(cfg.seed, cfg.ops)
	start := time.Now()
	deadline := time.Duration(cfg.seconds) * time.Second
	for r.rounds == 0 || time.Since(start) < deadline {
		r.rounds++
		// Each round starts from a collected heap, so that garbage of
		// the last round neither slows this one nor sets the peak RSS.
		runtime.GC()
		if err := play(r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", w.name, r.rounds, err)
			return 1
		}
		r.endRound()
	}

	res := result{Correct: r.mismatches == 0, Attempted: r.ops, Failed: r.failed}
	if cfg.trace {
		res.Metrics = r.perLayer()
		path := fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", w.name, cfg.seed)
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(r.tr.spans), path)
		if extra := r.unlistedMethods(); extra != "" {
			fmt.Fprintln(os.Stderr, "methods counted under netsim.msgs.other:", extra)
		}
	} else {
		res.Metrics = r.endToEnd()
	}

	fmt.Fprintf(os.Stderr, "%s seed=%d rounds=%d schedule=%d ops attempted=%d failed=%d mismatches=%d\n",
		w.name, cfg.seed, r.rounds, cfg.ops, r.ops, r.failed, r.mismatches)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, e := range r.firstErrors {
		fmt.Fprintln(os.Stderr, "  error:", e)
	}

	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}
