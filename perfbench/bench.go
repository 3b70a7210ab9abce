package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Workload sizes. Full sizes make a run take tens of seconds on 2 cores;
// the smoke sizes let the benchmark's own tests run each workload end to
// end in seconds.
type sizing struct {
	Build    FleetSize // archive-build
	Backfill FleetSize // feed-backfill
	Serve    FleetSize // serve-heap
	Live     FleetSize // live-mixed

	RefRate    float64 // serve-heap reference rate (req/s)
	LadderLo   float64 // serve-heap rate ladder
	LadderHi   float64
	LiveLines  float64 // live-mixed feed rate (lines/s)
	LiveQPS    float64 // live-mixed query rate (req/s)
	LiveTickMs int     // live-mixed merge cadence
	LiveCkpt   int     // live-mixed merges per checkpoint
	MinRungReq int
}

var sizes = map[string]sizing{
	"full": {
		Build:    FleetSize{Vessels: 800, Voyages: 500, Days: 15, Interval: 3600},
		Backfill: FleetSize{Vessels: 400, Voyages: 250, Days: 15, Interval: 3600},
		Serve:    FleetSize{Vessels: 400, Voyages: 250, Days: 15, Interval: 3600},
		Live:     FleetSize{Vessels: 600, Voyages: 375, Days: 15, Interval: 3600},
		RefRate:  150, LadderLo: 100, LadderHi: 3000,
		LiveLines: 6400, LiveQPS: 100, LiveTickMs: 50, LiveCkpt: 16,
		MinRungReq: 100,
	},
	"smoke": {
		Build:    FleetSize{Vessels: 4, Days: 10, Interval: 180},
		Backfill: FleetSize{Vessels: 4, Days: 10, Interval: 180},
		Serve:    FleetSize{Vessels: 4, Days: 10, Interval: 180},
		Live:     FleetSize{Vessels: 30, Days: 10, Interval: 3600},
		RefRate:  100, LadderLo: 50, LadderHi: 400,
		LiveLines: 4000, LiveQPS: 50, LiveTickMs: 50, LiveCkpt: 2,
		MinRungReq: 20,
	},
}

const (
	buildPar     = 2     // archive-build dataflow parallelism, fixed so output is host-independent
	ladderRatio  = 1.08  // serve-heap rung spacing
	rungP99Ms    = 100.0 // serve-heap p99 limit per rung
	rungKeepUp   = 0.95  // serve-heap: completions/s must keep up with the offered rate
	rungLateMs   = 20.0  // serve-heap bound on generator lateness per rung
	setupRepeats = 5
)

// Options is one benchmark invocation.
type Options struct {
	Root     string
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Size     string
}

// Metric is a named value with its unit, as the result line prints it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Host records the machine and run shape.
type Host struct {
	NumCPU        int    `json:"nproc"`
	GenGOMAXPROCS int    `json:"generator_gomaxprocs"`
	SUTGOMAXPROCS int    `json:"sut_gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	OS            string `json:"os"`
}

// Result is everything one phase (untraced or traced) measured.
type Result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`
	Size     string  `json:"size"`
	Host     Host    `json:"host"`
	Inputs   Archive `json:"inputs"`

	Correct   bool     `json:"correct"`
	Failures  []string `json:"failures,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`

	// Named holds the eleven named end-to-end metrics; the ones that do
	// not apply to the workload are absent.
	Named map[string]Metric `json:"named_metrics"`
	// E2E holds the contract metrics every workload reports.
	E2E    map[string]Metric  `json:"end_to_end"`
	Layers map[string]float64 `json:"per_layer,omitempty"`

	Gen ProcStats `json:"generator"`
	SUT ProcStats `json:"sut"`

	Detail map[string]any `json:"detail,omitempty"`
	spans  []SpanRec
}

func (r *Result) fail(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// named records a named metric; a quantile of no samples (NaN) is left
// out, so the report shows it as n/a.
func (r *Result) named(name, unit string, v float64) {
	if !math.IsNaN(v) {
		r.Named[name] = Metric{v, unit}
	}
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o Options
	var trace int
	fs.StringVar(&o.Root, "root", ".", "checkout root; inputs, results and spans go under <root>/.bench_build/perfbench")
	fs.StringVar(&o.Workload, "workload", "", "archive-build | feed-backfill | serve-heap | live-mixed")
	fs.Int64Var(&o.Seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.Seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run (per-layer metrics, spans, tracing overhead)")
	fs.StringVar(&o.Size, "size", "full", "input sizes: full | smoke")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.Trace = trace == 1
	if _, ok := sizes[o.Size]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -size %q\n", o.Size)
		return 2
	}
	line, err := Run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// Run executes one invocation, prints the human report to w and returns
// the final JSON result line. A traced invocation measures the workload
// twice, untraced then traced, each for half the seconds, and reports the
// per-layer metrics of the traced half plus the traced-minus-untraced
// difference of every end-to-end metric.
func Run(o Options, w io.Writer) (string, error) {
	if _, ok := workloads[o.Workload]; !ok {
		return "", fmt.Errorf("unknown workload %q (have %s)", o.Workload, strings.Join(workloadNames(), ", "))
	}
	base := filepath.Join(o.Root, ".bench_build", "perfbench")
	var res *Result
	var err error
	if !o.Trace {
		res, err = runPhase(o, base, false)
	} else {
		half := o
		half.Seconds = o.Seconds / 2
		var plain *Result
		if plain, err = runPhase(half, base, false); err == nil {
			res, err = runPhase(half, base, true)
			if err == nil && plain.Correct && res.Correct {
				for _, m := range e2eMetrics {
					res.Layers["overhead."+m.Name] = res.E2E[m.Name].Value - plain.E2E[m.Name].Value
				}
			}
			if err == nil && !plain.Correct {
				res.Correct = false
				res.Failures = append(res.Failures, plain.Failures...)
			}
		}
	}
	if err != nil {
		return "", err
	}
	// A quantile of no samples is NaN: such an end-to-end metric was not
	// measured and the run cannot pass; such a layer metric reads 0.
	for name, m := range res.E2E {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(res.E2E, name)
			res.fail("%s: no samples", name)
		}
	}
	for name, v := range res.Layers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Layers[name] = 0
		}
	}
	if err := saveResult(base, res); err != nil {
		return "", err
	}
	printReport(w, res)
	return resultLine(res), nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type workloadFunc func(p *phaseCtx) error

var workloads = map[string]workloadFunc{
	"archive-build": runArchiveBuild,
	"feed-backfill": runFeedBackfill,
	"serve-heap":    runServeHeap,
	"live-mixed":    runLiveMixed,
}

// phaseCtx is the state of one measured phase.
type phaseCtx struct {
	o     Options
	sz    sizing
	base  string
	cache inputCache
	res   *Result
	rec   *recorder // generator spans; nil when untraced
	sut   *sutProc
	gen   *phase
}

func runPhase(o Options, base string, traced bool) (*Result, error) {
	p := &phaseCtx{
		o: o, sz: sizes[o.Size], base: base,
		cache: inputCache{dir: filepath.Join(base, "inputs")},
		res: &Result{
			Workload: o.Workload, Seed: o.Seed, Traced: traced, Seconds: o.Seconds, Size: o.Size,
			Correct: true, Named: map[string]Metric{}, E2E: map[string]Metric{}, Detail: map[string]any{},
		},
	}
	if traced {
		p.rec = newRecorder("generator")
		p.res.Layers = map[string]float64{}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	p.res.Host = Host{
		NumCPU: runtime.NumCPU(), GenGOMAXPROCS: runtime.GOMAXPROCS(0),
		SUTGOMAXPROCS: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit(), OS: runtime.GOOS + "/" + runtime.GOARCH,
	}
	sut, err := startSUT(base)
	if err != nil {
		return nil, err
	}
	p.sut = sut
	defer sut.kill()
	if err := workloads[o.Workload](p); err != nil {
		return nil, err
	}
	fin, err := sut.call(Cmd{Op: "finish"})
	if err != nil {
		return nil, err
	}
	if err := sut.wait(); err != nil {
		return nil, err
	}
	if traced {
		p.res.spans = withSelf(append(p.rec.Spans(), fin.Final.Spans...))
		layerMetrics(p.res, fin.Final)
	}
	p.res.E2E["heap_mb"] = Metric{p.res.SUT.HeapMB, "MB"}
	p.res.named("heap_mb", "MB", p.res.SUT.HeapMB)
	p.res.named("error_ratio", "ratio", float64(p.res.Failed)/float64(max(p.res.Attempted, 1)))
	return p.res, nil
}

// begin starts the timed phase in both processes.
func (p *phaseCtx) begin() error {
	_, err := p.sut.call(Cmd{Op: "start", Workload: p.o.Workload})
	p.gen = startPhase()
	return err
}

// end closes the timed phase in both processes.
func (p *phaseCtx) end() error {
	p.res.Gen = p.gen.end()
	rep, err := p.sut.call(Cmd{Op: "end"})
	if err != nil {
		return err
	}
	p.res.SUT = rep.Final.Proc
	return nil
}

// setups brings the SUT up setupRepeats times (each set-up replaces the
// previous one) and records the median as setup_s; the last instance
// stays up for the timed phase.
func (p *phaseCtx) setups(c Cmd) (Reply, error) {
	var times []float64
	var rep Reply
	var err error
	for i := 0; i < setupRepeats; i++ {
		if rep, err = p.sut.call(c); err != nil {
			return rep, err
		}
		times = append(times, rep.SetupS)
	}
	p.setSetup(times)
	return rep, nil
}

func (p *phaseCtx) setSetup(times []float64) {
	p.res.E2E["setup_s"] = Metric{Median(times), "s"}
	p.res.named("setup_s", "s", Median(times))
	p.res.Detail["setup_s_all"] = times
}

func (p *phaseCtx) deadline() time.Time {
	return time.Now().Add(time.Duration(p.o.Seconds * float64(time.Second)))
}

// sutProc is the system-under-test child process and its control pipe.
type sutProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Scanner
	done chan error
}

func startSUT(base string) (*sutProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "sut")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	cmd.Dir = base
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 512<<20)
	return &sutProc{cmd: cmd, in: in, out: sc}, nil
}

func (s *sutProc) call(c Cmd) (Reply, error) {
	var rep Reply
	data, err := json.Marshal(c)
	if err != nil {
		return rep, err
	}
	if _, err := s.in.Write(append(data, '\n')); err != nil {
		return rep, fmt.Errorf("sut %s: %w", c.Op, err)
	}
	if !s.out.Scan() {
		if err := s.out.Err(); err != nil {
			return rep, fmt.Errorf("sut %s: %w", c.Op, err)
		}
		return rep, fmt.Errorf("sut %s: process exited", c.Op)
	}
	if err := json.Unmarshal(s.out.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("sut %s: %w", c.Op, err)
	}
	if rep.Err != "" {
		return rep, fmt.Errorf("sut %s: %s", c.Op, rep.Err)
	}
	return rep, nil
}

// wait reaps the SUT after it answered "finish".
func (s *sutProc) wait() error {
	s.in.Close()
	err := s.cmd.Wait()
	s.cmd = nil
	return err
}

// kill stops the SUT if it is still running and waits for it.
func (s *sutProc) kill() {
	if s.cmd == nil {
		return
	}
	s.in.Close()
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.cmd = nil
}

// commit is the source revision the launcher found (POL_COMMIT), or
// "unknown" for a checkout that is not a git work tree.
func commit() string {
	if v := os.Getenv("POL_COMMIT"); v != "" {
		return v
	}
	return "unknown"
}

func saveResult(base string, r *Result) error {
	dir := filepath.Join(base, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, btoi(r.Traced))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".json"), data, 0o644); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, stem+"-spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// resultLine is the contract's last stdout line. A run whose correctness
// gate failed reports the failure and no numbers.
func resultLine(r *Result) string {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]Metric{}}
	if r.Correct {
		if r.Traced {
			for _, l := range layerDefs {
				out.Metrics[l.Name] = Metric{r.Layers[l.Name], l.Unit}
			}
		} else {
			for _, m := range e2eMetrics {
				out.Metrics[m.Name] = r.E2E[m.Name]
			}
		}
	}
	data, _ := json.Marshal(out)
	return string(data)
}

// printReport writes the human-readable report: host and run shape, input
// sizes, all eleven named end-to-end metrics (n/a where a metric does not
// apply), and the correctness verdict.
func printReport(w io.Writer, r *Result) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g traced=%v size=%s\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Size)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS generator=%d sut=%d %s %s commit=%s\n",
		r.Host.NumCPU, r.Host.GenGOMAXPROCS, r.Host.SUTGOMAXPROCS, r.Host.GoVersion, r.Host.OS, r.Host.Commit)
	in := r.Inputs
	fmt.Fprintf(w, "inputs: lines=%d positions=%d statics=%d trips=%d groups=%d bytes=%d\n",
		in.Lines, in.Positions, in.Statics, in.Trips, in.Groups, in.Bytes)
	fmt.Fprintf(w, "cpu: sut=%.3fs generator=%.3fs\n", r.SUT.CPUSeconds, r.Gen.CPUSeconds)
	for _, m := range namedMetrics {
		if v, ok := r.Named[m.Name]; ok {
			fmt.Fprintf(w, "  %-22s %14.4f %s\n", m.Name, v.Value, v.Unit)
		} else {
			fmt.Fprintf(w, "  %-22s %14s %s\n", m.Name, "n/a", m.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}
