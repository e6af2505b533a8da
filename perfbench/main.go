// Command perfbench is the repository benchmark: three named workloads
// (serve_read, serve_write, crash_boot) measured end to end, a separate
// traced run that times each layer, and correctness oracles that fail
// the run on any wrong answer. See README.md in this directory.
//
//	bash perfbench/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh -report .bench_build/spans-serve_read-1.json
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	interopd string
	work     string // this run's private scratch directory
}

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failures are the per-kind counts behind the failed total. Counters
// are atomic: the two client connections of a served run share them.
type failures struct {
	errs             atomic.Int64
	refused          atomic.Int64
	wrongAnswer      atomic.Int64
	validRejected    atomic.Int64
	plantedCommitted atomic.Int64
}

func (f *failures) total() int64 {
	return f.errs.Load() + f.refused.Load() + f.wrongAnswer.Load() + f.validRejected.Load() + f.plantedCommitted.Load()
}

func (f *failures) report() map[string]int64 {
	return map[string]int64{
		"errors":            f.errs.Load(),
		"refused_429":       f.refused.Load(),
		"wrong_answers":     f.wrongAnswer.Load(),
		"valid_rejected":    f.validRejected.Load(),
		"planted_committed": f.plantedCommitted.Load(),
	}
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int64
	fail      failures
	// oracle collects correctness-oracle failures; any entry makes the
	// run incorrect. The first few are printed. mu guards it: a served
	// run's two connections check answers concurrently.
	mu      sync.Mutex
	oracle  []string
	metrics map[string]metric
	detail  map[string]any
	env     map[string]any
}

func (o *outcome) wrong(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.oracle) < 20 {
		o.oracle = append(o.oracle, fmt.Sprintf(format, args...))
	} else if len(o.oracle) == 20 {
		o.oracle = append(o.oracle, "...")
	}
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, detail: map[string]any{}, env: map[string]any{}}
}

func main() {
	var cfg config
	var trace int
	var report string
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve_read, serve_write or crash_boot")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	flag.StringVar(&cfg.interopd, "interopd", "", "interopd binary built from this checkout")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for run scratch files and span dumps")
	flag.StringVar(&report, "report", "", "print the per-layer summary of a span dump and exit")
	flag.Parse()
	cfg.trace = trace == 1

	if report != "" {
		if err := printReport(os.Stdout, report); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(cfg))
}

func run(cfg config) int {
	runner, ok := map[string]func(config) (*outcome, error){
		"serve_read":  runServeRead,
		"serve_write": runServeWrite,
		"crash_boot":  runCrashBoot,
	}[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have serve_read, serve_write, crash_boot)\n", cfg.workload)
		return 2
	}
	if cfg.trace {
		runner = runTraced
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if cfg.interopd == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -interopd is required (run through perfbench/run.sh)")
		return 2
	}
	base := cfg.work
	cfg.work = filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)
	defer stopChildren()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopChildren()
		os.RemoveAll(cfg.work)
		os.Exit(1)
	}()

	steal0, total0 := cpuSteal()
	out, err := runner(cfg)
	steal1, total1 := cpuSteal()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		if err := writeSpans(out, base, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	env := environment(cfg)
	for k, v := range out.env {
		env[k] = v
	}
	if total1 > total0 {
		// On a virtual machine the hypervisor's steal share explains
		// much of the run-to-run spread; later comparisons can see it.
		env["host_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	failed := out.fail.total()
	ratio := 0.0
	if out.attempted > 0 {
		ratio = float64(failed) / float64(out.attempted)
	}
	if err := printJSON(map[string]any{"env": env}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(map[string]any{
		"workload":     cfg.workload,
		"attempted":    out.attempted,
		"failures":     out.fail.report(),
		"failed_ratio": ratio,
		"oracles_ok":   len(out.oracle) == 0,
		"oracle_fails": out.oracle,
		"detail":       out.detail,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	correct := len(out.oracle) == 0 && failed == 0 && out.attempted > 0
	if err := printJSON(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, failed, out.metrics}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// environment records what a later comparison must hold equal: host
// parallelism, toolchain, source identity, seed and run length.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
	}
}

// cpuSteal reads the host-wide steal and total CPU ticks from
// /proc/stat (zeros where it is unreadable).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// gitCommit is the checkout's commit, or "none" outside a git work tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources (the benchmark and the
// build directory excluded), identifying the code under test even where
// the checkout carries no git metadata.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == ".bench_build" || p == "perfbench" || p == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
