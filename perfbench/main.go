// Command perfbench is the repository benchmark. It runs an in-process
// serve.Server (or a 2-replica scatter fleet) behind loopback HTTP
// listeners, drives it from one closed-loop load generator, checks every
// answer, and prints the end-to-end metrics of one workload. With --trace 1
// it instead replays the workload's requests through the layers' public
// functions with a span around each call and prints the per-layer metrics.
// README.md in this directory maps each layer metric to the end-to-end
// metric and workload it should move.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload cold-estimate --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result as one JSON object;
// the lines before it name every metric with its unit, the run
// environment, and where spans and result records were written.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"m3/internal/model"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := flag.Int("seconds", 20, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := flag.String("out", ".bench_build/results", "directory for spans and result records")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// environment is recorded with every result.
type environment struct {
	Workload    string        `json:"workload"`
	Seed        uint64        `json:"seed"`
	Seconds     int           `json:"seconds"`
	Trace       int           `json:"trace"`
	NumCPU      int           `json:"nproc"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	GoVersion   string        `json:"go_version"`
	CPUModel    string        `json:"cpu_model,omitempty"`
	Fixture     string        `json:"fixture_fingerprint"`
	FixtureS    float64       `json:"fixture_build_s"`
	Recipe      recipe        `json:"fixture_recipe"`
	Spec        specParams    `json:"spec"`
	SpecSeed    uint64        `json:"spec_seed"`
	Definitions []workloadDef `json:"workload_params"`
}

func run(name string, seed uint64, seconds, trace int, outDir string) error {
	if seconds < 1 {
		return fmt.Errorf("perfbench: --seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("perfbench: --trace must be 0 or 1")
	}
	var defs []*workloadDef
	if name == "all" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	} else {
		def, err := workloadByName(name)
		if err != nil {
			return err
		}
		defs = append(defs, def)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The fixture is built before any timed set-up, the same way in every run.
	t0 := time.Now()
	net, err := buildFixture(ctx)
	if err != nil {
		return err
	}
	env := environment{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(),
		Fixture:  fingerprintHex(net.Fingerprint()), FixtureS: time.Since(t0).Seconds(),
		Recipe: fixtureRecipe, Spec: benchSpec, SpecSeed: specSeed(seed),
	}
	for _, d := range defs {
		env.Definitions = append(env.Definitions, *d)
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	window := time.Duration(seconds) * time.Second
	total := &runResult{Correct: true, Metrics: map[string]metric{}}
	for _, def := range defs {
		res, err := runOne(ctx, net, def, seed, window, trace, outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		printResult(def.Name, res)
		if err := writeRecord(outDir, def.Name, seed, trace, env, res); err != nil {
			return err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(defs) > 1 {
				k = def.Name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func runOne(ctx context.Context, net *model.Net, def *workloadDef, seed uint64,
	window time.Duration, trace int, outDir string) (*runResult, error) {
	if trace == 1 {
		return runTraced(ctx, net, def, seed, window, outDir)
	}
	return runUntraced(ctx, net, def, seed, window)
}

// printResult prints every metric by name and unit, then the notes.
func printResult(name string, res *runResult) {
	all := map[string]metric{}
	for k, v := range res.Metrics {
		all[k] = v
	}
	for k, v := range res.printed {
		all[k] = v
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("workload %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		m := all[k]
		fmt.Printf("  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Printf("  # %s\n", n)
	}
}

// writeRecord saves the result with its environment.
func writeRecord(outDir, name string, seed uint64, trace int, env environment, res *runResult) error {
	rec := struct {
		Env       environment `json:"env"`
		Result    *runResult  `json:"result"`
		Notes     []string    `json:"notes"`
		Latencies []float64   `json:"latencies_ms,omitempty"`
	}{env, res, res.notes, res.latencies}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuModel names the processor, where /proc says.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
