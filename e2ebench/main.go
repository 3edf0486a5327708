// Command e2ebench is Ruru's end-to-end benchmark: it drives the real
// ruru.Pipeline through its public API — frames into Port.InjectBurst,
// results out of the TSDB, the /api/query handler and the WebSocket hub —
// and reports capacity, freshness, query latency, failures and per-layer
// counters. See README.md for the workloads and metric definitions.
//
//	bash e2ebench/run.sh --workload handshake --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose outputs fail the
// correctness gate exits non-zero and prints no numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"ruru/internal/gen"
)

// workload is one fixed traffic mix. The pipeline it drives is sized in
// pipelineConfig, not read from the machine at run time.
type workload struct {
	name string
	// lap is the generator shape of one pre-rendered lap (Seed and World
	// are filled in per run).
	lap gen.Config
	// lapsPerSecond fixes a closed-loop run's work: laps =
	// round(seconds × lapsPerSecond). It is sized so a lap takes about
	// 1/lapsPerSecond s on the 2-CPU reference machine; a faster pipeline
	// finishes the same work sooner.
	lapsPerSecond float64
	// dashboard selects the open loop — frames injected at their own
	// virtual timing under the Drop policy — over the restored 1 h
	// history, with the rollup WebSocket client and the query schedule.
	// Otherwise the loop is closed: Block policy, and injection waits
	// while in-flight measurements exceed inflightWindow.
	dashboard bool
}

var workloads = map[string]*workload{
	"handshake": {
		name:          "handshake",
		lap:           gen.Config{FlowRate: 20000, DataSegments: 1, Duration: 0.5e9},
		lapsPerSecond: 0.6,
	},
	"bulk": {
		name: "bulk",
		lap: gen.Config{FlowRate: 1000, DataSegments: 200, DataSpacing: 1e6,
			UDPRate: 20000, MidstreamRate: 200, Duration: 1e9},
		lapsPerSecond: 5,
	},
	"dashboard": {
		name:      "dashboard",
		lap:       gen.Config{FlowRate: 3000, DataSegments: 1, Duration: 2e9},
		dashboard: true,
	},
}

// worldCities is the size of the synthetic world every workload uses: its
// 64 city pairs fit every pair summary, and warming 64 spike-detector
// windows keeps set-up short.
const worldCities = 8

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: handshake, bulk or dashboard")
	flag.Int64Var(&o.seed, "seed", 1, "generator seed (same seed, same inputs)")
	flag.IntVar(&o.seconds, "seconds", 10, "measured length of the run, s")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for TSDB copies and span files")
	flag.Parse()
	o.trace = traceFlag == 1
	wl, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload handshake|bulk|dashboard, --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := runWorkload(wl, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := report(res, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure. n, when non-zero, is the sample count
// behind a percentile.
type metric struct {
	value float64
	unit  string
	n     int
}

// result is what one run measured. e2e and layer hold the end-to-end and
// per-layer metric sets; only the set the run was asked for is printed.
type result struct {
	attempted, failed int
	e2e, layer        map[string]metric
}

// report prints every metric by name with its unit (and sample count for
// percentiles), then the JSON result as the last line.
func report(res *result, traced bool) error {
	set := res.e2e
	if traced {
		set = res.layer
	}
	out := make(map[string]map[string]any, len(set))
	for _, k := range sortedKeys(set) {
		m := set[k]
		line := fmt.Sprintf("%-28s %16.6f %s", k, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Println(line)
		out[k] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func sortedKeys(set map[string]metric) []string {
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
