// Command itsbed runs the testbed experiments and prints each table
// and figure of the paper, plus the extension studies.
//
// Usage:
//
//	itsbed table1            # DENM cause-code registry (Table I)
//	itsbed table2            # step-interval measurements (Table II)
//	itsbed table3            # braking distances (Table III)
//	itsbed fig7              # detection reliability per dressing (Fig. 7)
//	itsbed fig10             # video detection-to-stop analysis (Fig. 10)
//	itsbed fig11             # EDF of total delays (Fig. 11)
//	itsbed cdf               # EXT-1 large-N latency CDF + fits
//	itsbed radios            # EXT-2 ITS-G5 vs cellular comparison
//	itsbed platoon           # EXT-3 platoon detection-to-action
//	itsbed baseline          # EXT-4 blind-corner V2X vs onboard-only
//	itsbed poll-sweep        # ABL-1 OBU poll-interval ablation
//	itsbed fps-sweep         # ABL-2 camera rate ablation
//	itsbed load-sweep        # ABL-3 channel load / EDCA priority
//	itsbed obstruction       # EXT-5 obstructed-link study
//	itsbed platoon-acc       # EXT-6 platoon string-stability study
//	itsbed ntp-sweep         # ABL-4 clock-sync quality vs measured intervals
//	itsbed resilience        # EXT-7 fault-plan resilience sweep (-faults)
//	itsbed city              # SCALE-1 city-scale density sweep (see below)
//	itsbed cpm               # CPM-1 occluded-pedestrian collective perception study
//	itsbed soak              # SOAK-1 service-mode overload campaign (see below)
//	itsbed bakeoff           # BAKEOFF-1 radio-technology comparison (see below)
//	itsbed all               # everything above (resilience, city, cpm, soak and bakeoff excluded)
//
// Every command reads -seed S and -workers W; the flags each command
// reads beyond those are listed in its row of the command registry
// (commands, below). Every command that repeats attempts reads -runs N
// for their count (0 keeps the experiment's own default). A flag set
// to a value other than its default on a command that does not read it
// is an error naming the commands that do; all reads what the commands
// it runs read, except -radio. Flags may sit on both sides of the
// command name ("-seed 7 table2 -runs 4"); anything else after the
// command is an error.
//
// -workers W bounds the concurrent attempts (default: all CPUs);
// results, including the -metrics, -trace-out and -blackbox output,
// are bit-identical for every worker count. Two commands have no
// attempts to spread: fig7 draws every cell from one seeded stream, so
// it is serial by construction, and table1 prints a registry.
//
// -radio selects the radio backend of the scenario commands (table2,
// table3, fig10, fig11, resilience): its-g5 (default, the paper's
// 802.11p stack), cv2x-pc5 (C-V2X mode-4 sidelink with semi-persistent
// scheduling) or cv2x-uu (C-V2X infrastructure path through the
// base-station/core hop). Every station of the run, background load
// included, attaches to that one backend. The bakeoff command runs the
// Table II chain over all three backends and prints per-backend
// latency and PDR rows; the radios command (EXT-2) runs the cv2x-uu
// path under the 5G URLLC, 5G eMBB and LTE profiles.
//
// -faults selects the fault plan of the resilience and soak commands:
// either the name of a builtin plan (blackout, burst-loss, crash-rsu,
// crash-obu, camera-dropout, http-flaky, chaos, soak) or the path of a
// JSON plan file. The resilience sweep injects the plan into every run
// with the vehicle's fail-safe watchdog and the edge trigger retries
// enabled, and reports the outcome distribution (warned stop /
// fail-safe stop / miss) plus the latency inflation versus the
// fault-free baseline.
//
// -blackbox DIR makes the resilience command write flight-recorder
// post-mortems into DIR: every run that trips an anomaly trigger (a
// miss or fail-safe outcome, a 2→5 total above the 100 ms SLO, or any
// injected fault window) dumps its black-box event ring as JSONL plus
// an ASCII timeline. File notices go to stderr, keeping stdout
// golden-stable.
//
// -progress prints a completed/total attempts line on stderr while a
// scenario campaign runs. It observes the deterministic decision path
// only and never perturbs results.
//
// The cpm command runs the occluded-pedestrian crossing with and
// without the Collective Perception service under identical seeds: a
// road-side camera is the only sensor with line of sight, and the
// study compares how early the vehicle brakes when the RSU shares its
// perceived objects in CPMs versus warning with a conventional DENM
// once the pedestrian reaches the lane.
//
// The soak command boots an in-process multiplexed daemon hosting
// -soak-stations stations (default 500) and hammers it with the
// deterministic load harness at -rps for -duration while the fault
// plan (default: the builtin soak plan) injects API timeouts/errors
// and churns the station table. It prints the latency table
// (p50/p95/p99 per endpoint), shed/deadline counts, mailbox drops,
// peak heap and the goroutine-leak bracket. -thresholds FILE checks
// the result against a committed ceilings file and fails the process
// on violation.
//
// The city command simulates a synthetic road-grid city with DCC-
// throttled CAM traffic and RSU hazard DENMs, and prints a per-density
// table of channel-busy ratio, DCC state occupancy, packet-delivery
// ratio and DENM latency. -stations is a comma-separated density list
// (default 100,300,1000), -rsus the road-side unit count, -duration
// the simulated time per density, and -dcc=false disables the reactive
// congestion controller.
//
// -metrics prints, after the table2 output, the per-layer delay
// budget of the warning chain (radio / geonet / facilities /
// openc2x-poll / actuation) plus the merged metrics snapshot of every
// accepted run; after the resilience report, the merged metrics of the
// faulted runs. -trace-out writes, for table2, every recorded
// per-message span as a Chrome trace-event JSON file loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. -spans prints an
// ASCII waterfall of each run's end-to-end denm.chain trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"itsbed/internal/core"
	"itsbed/internal/experiments"
	"itsbed/internal/faults"
	"itsbed/internal/its/messages"
	"itsbed/internal/loadgen"
	"itsbed/internal/tracing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "itsbed:", err)
		os.Exit(1)
	}
}

// params is the parsed command line. Every command reads seed and
// workers; the other fields belong to the flags of its registry row.
type params struct {
	seed                                  int64
	runs, workers, rsus, soakStations     int
	vision, metrics, spans, dcc, progress bool
	traceOut, faults, stations, blackbox  string
	thresholds, radioName                 string
	duration                              time.Duration
	rps                                   float64
	radio                                 core.RadioKind
	faultsSet                             bool // -faults given, even at its default
}

// command is one row of the registry.
type command struct {
	name  string
	flags []string // flags read beyond -seed and -workers
	inAll bool     // all runs it, in registry order
	run   func(p params, stdout io.Writer) error
}

// scenarioFlags are read by every command that runs the paper's
// scenario through experiments.ScenarioOptions.
var scenarioFlags = []string{"runs", "vision", "radio", "progress"}

// commands is the registry: dispatch, the all order, the
// unknown-command message and the flag rule all read it.
var commands = []command{
	{"table1", nil, true, func(_ params, w io.Writer) error {
		fmt.Fprintln(w, "TABLE I: DENM cause codes (EN 302 637-3 registry subset)")
		fmt.Fprintf(w, "%-6s %-48s %s\n", "code", "cause", "sub-causes")
		for _, c := range messages.AllCauses() {
			fmt.Fprintf(w, "%-6d %-48s %d defined\n", c.Code, c.Description, len(c.SubCauses))
		}
		for _, code := range []messages.CauseCode{
			messages.CauseHazardousLocationSurfaceCondition,
			messages.CauseHazardousLocationObstacleOnTheRoad,
			messages.CauseCollisionRisk,
			messages.CauseDangerousSituation,
		} {
			info, _ := messages.Lookup(code)
			fmt.Fprintf(w, "\n%d %s:\n", code, info.Description)
			for sub := messages.SubCauseCode(0); sub < 12; sub++ {
				if d, ok := info.SubCauses[sub]; ok {
					fmt.Fprintf(w, "  %2d  %s\n", sub, d)
				}
			}
		}
		return nil
	}},
	{"table2", slices.Concat(scenarioFlags, []string{"metrics", "trace-out", "spans"}), true, func(p params, w io.Writer) error {
		res, err := experiments.TableII(p.scenario())
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Format())
		if p.metrics {
			fmt.Fprint(w, "\n", res.LayerBudget().Format(), "\n", res.Metrics.Format())
		}
		if p.traceOut != "" {
			if err := os.WriteFile(p.traceOut, tracing.ChromeTrace(res.Traces), 0o644); err != nil {
				return fmt.Errorf("write trace: %w", err)
			}
			fmt.Fprintf(w, "\nwrote %d spans to %s (load in ui.perfetto.dev or chrome://tracing)\n",
				len(res.Traces.Spans), p.traceOut)
		}
		if p.spans {
			chains := res.Traces.FilterTraces(func(root tracing.SpanRecord) bool {
				return root.Name == "denm.chain"
			})
			fmt.Fprint(w, "\n", tracing.Waterfall(chains))
		}
		return nil
	}},
	{"table3", scenarioFlags, true, func(p params, w io.Writer) error {
		return report(w, experiments.TableIIIResult.Format)(experiments.TableIII(p.scenario()))
	}},
	{"fig7", nil, true, func(p params, w io.Writer) error {
		return report(w, experiments.Figure7Result.Format)(experiments.Figure7(p.seed, 0), nil)
	}},
	{"fig10", scenarioFlags, true, func(p params, w io.Writer) error {
		return report(w, experiments.Figure10Result.Format)(experiments.Figure10(p.scenario()))
	}},
	{"fig11", scenarioFlags, true, func(p params, w io.Writer) error {
		return report(w, experiments.Figure11Result.Format)(experiments.Figure11(p.scenario()))
	}},
	{"cdf", []string{"runs"}, true, func(p params, w io.Writer) error {
		return report(w, experiments.CDFResult.Format)(experiments.LatencyCDF(p.seed+1000, p.runs, p.workers))
	}},
	{"radios", []string{"runs"}, true, func(p params, w io.Writer) error {
		return report(w, experiments.RadioComparisonResult.Format)(experiments.RadioComparison(p.seed+2000, p.runs, p.workers))
	}},
	{"platoon", []string{"runs"}, true, func(p params, w io.Writer) error {
		for _, mode := range []experiments.PlatoonMode{experiments.PlatoonITSG5, experiments.PlatoonHybrid} {
			res, err := experiments.PlatoonStudy(p.seed+3000, p.runs, 4, mode, p.workers)
			if err != nil {
				return err
			}
			fmt.Fprint(w, res.Format())
		}
		return nil
	}},
	{"baseline", []string{"runs"}, true, func(p params, w io.Writer) error {
		return report(w, experiments.BlindCornerResult.Format)(experiments.BlindCorner(p.seed+4000, p.runs, p.workers))
	}},
	{"poll-sweep", []string{"runs"}, true, func(p params, w io.Writer) error {
		return report(w, experiments.FormatPollSweep)(experiments.PollIntervalSweep(p.seed+7000, p.runs, nil, p.workers))
	}},
	{"fps-sweep", []string{"runs"}, true, func(p params, w io.Writer) error {
		return report(w, experiments.FormatFPSSweep)(experiments.CameraFPSSweep(p.seed+7100, p.runs, nil, p.workers))
	}},
	{"load-sweep", []string{"runs"}, true, func(p params, w io.Writer) error {
		return report(w, experiments.FormatLoadSweep)(experiments.ChannelLoadSweep(p.seed+7200, p.runs, nil, p.workers))
	}},
	{"obstruction", []string{"runs"}, true, func(p params, w io.Writer) error {
		return report(w, experiments.FormatObstruction)(experiments.ObstructedLink(p.seed+7300, p.runs, p.workers))
	}},
	{"platoon-acc", []string{"runs"}, true, func(p params, w io.Writer) error {
		return report(w, experiments.FormatPlatoonACC)(experiments.PlatoonACC(p.seed+9000, p.runs, nil, p.workers))
	}},
	{"ntp-sweep", []string{"runs"}, true, func(p params, w io.Writer) error {
		return report(w, experiments.FormatNTPSweep)(experiments.NTPQualitySweep(p.seed+11000, p.runs, p.workers))
	}},
	{"resilience", slices.Concat(scenarioFlags, []string{"faults", "metrics", "blackbox"}), false, func(p params, w io.Writer) error {
		plan, err := loadFaultPlan(p.faults)
		if err != nil {
			return err
		}
		res, err := experiments.Resilience(experiments.ResilienceOptions{
			ScenarioOptions: p.scenario(),
			Plan:            plan,
			Blackbox:        p.blackbox,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Format())
		if p.metrics {
			fmt.Fprint(w, "\n", res.Metrics.Format())
		}
		// Post-mortem notices go to stderr so the report stays byte-stable
		// for golden comparisons.
		for _, f := range res.Dumps {
			fmt.Fprintln(os.Stderr, "itsbed: wrote post-mortem", f)
		}
		return nil
	}},
	{"city", []string{"stations", "rsus", "duration", "dcc"}, false, func(p params, w io.Writer) error {
		opt := experiments.CityOptions{
			BaseSeed:   p.seed + 13000,
			RSUs:       p.rsus,
			Duration:   p.duration,
			Workers:    p.workers,
			DisableDCC: !p.dcc,
		}
		if p.stations != "" {
			for _, part := range strings.Split(p.stations, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || n <= 0 {
					return fmt.Errorf("invalid -stations entry %q", part)
				}
				opt.Stations = append(opt.Stations, n)
			}
		}
		rows, err := experiments.CitySweep(opt)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatCity(rows, opt))
		return nil
	}},
	{"cpm", []string{"runs"}, false, func(p params, w io.Writer) error {
		return report(w, experiments.FormatCPM)(experiments.CPMCampaign(experiments.CPMOptions{
			BaseSeed: p.seed,
			Runs:     p.runs,
			Workers:  p.workers,
		}))
	}},
	{"soak", []string{"soak-stations", "rps", "duration", "faults", "thresholds"}, false, func(p params, w io.Writer) error {
		planArg := p.faults
		if !p.faultsSet {
			// The resilience default (chaos) targets the scenario sim;
			// soaks default to the overload plan.
			planArg = "soak"
		}
		plan, err := loadFaultPlan(planArg)
		if err != nil {
			return err
		}
		rep, err := loadgen.RunSoak(context.Background(), loadgen.SoakOptions{
			Stations: p.soakStations,
			RPS:      p.rps,
			Duration: p.duration,
			Workers:  p.workers,
			Seed:     p.seed,
			Plan:     plan,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "SOAK-1 service-mode overload campaign (plan %q, seed %d)\n", plan.Name, p.seed)
		fmt.Fprint(w, rep.Format())
		if p.thresholds == "" {
			return nil
		}
		data, err := os.ReadFile(p.thresholds)
		if err != nil {
			return err
		}
		th, err := loadgen.ParseThresholds(data)
		if err != nil {
			return err
		}
		if err := rep.Result.Check(th); err != nil {
			return err
		}
		fmt.Fprintln(w, "thresholds: PASS")
		return nil
	}},
	{"bakeoff", []string{"runs", "vision"}, false, func(p params, w io.Writer) error {
		return report(w, experiments.BakeoffResult.Format)(experiments.Bakeoff(p.scenario()))
	}},
}

// report returns a function that writes format(v) to w, or returns the
// error that stopped the experiment.
func report[T any](w io.Writer, format func(T) string) func(T, error) error {
	return func(v T, err error) error {
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, format(v))
		return err
	}
}

// reads reports whether command name reads flag f. all reads what the
// commands it runs read, except -radio: cdf, radios and the other
// extensions would print ITS-G5 numbers under any backend.
func reads(name, f string) bool {
	for _, c := range commands {
		if (c.name == name || name == "all" && c.inAll && f != "radio") && slices.Contains(c.flags, f) {
			return true
		}
	}
	return false
}

// readers lists, in registry order, the commands that read flag f.
func readers(f string) []string {
	var out []string
	for _, name := range names() {
		if reads(name, f) {
			out = append(out, name)
		}
	}
	return out
}

// names lists the commands in registry order, then all.
func names() []string {
	out := make([]string, 0, len(commands)+1)
	for _, c := range commands {
		out = append(out, c.name)
	}
	return append(out, "all")
}

func lookup(name string) (command, bool) {
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	if i < 0 {
		return command{}, false
	}
	return commands[i], true
}

// parse reads the command line into its command name and params.
// Flags may sit on both sides of the command ("-workers 1 city
// -stations 10"); a flag set away from its default on a command that
// does not read it is an error, so no output is ever printed without it.
func parse(args []string) (string, params, error) {
	var p params
	fs := flagSet(&p)
	if err := fs.Parse(args); err != nil {
		return "", p, err
	}
	name := "all"
	if fs.NArg() > 0 {
		name = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return "", p, err
		}
	}
	if fs.NArg() > 0 {
		return "", p, fmt.Errorf("unexpected argument %q after command %s", fs.Arg(0), name)
	}
	var err error
	if p.radio, err = core.ParseRadio(p.radioName); err != nil {
		return "", p, err
	}
	if !slices.Contains(names(), name) {
		return "", p, fmt.Errorf("unknown command %q (try: %s)", name, strings.Join(names(), " "))
	}
	fs.VisitAll(func(f *flag.Flag) {
		if err != nil || f.Name == "seed" || f.Name == "workers" || f.Value.String() == f.DefValue || reads(name, f.Name) {
			return
		}
		err = fmt.Errorf("%s ignores -%s %s; only %s take it", name, f.Name, f.Value, strings.Join(readers(f.Name), ", "))
	})
	fs.Visit(func(f *flag.Flag) { p.faultsSet = p.faultsSet || f.Name == "faults" })
	return name, p, err
}

// flagSet binds every flag of the command line to p.
func flagSet(p *params) *flag.FlagSet {
	fs := flag.NewFlagSet("itsbed", flag.ContinueOnError)
	fs.Int64Var(&p.seed, "seed", 42, "base random seed")
	fs.IntVar(&p.runs, "runs", 0, "number of runs (0 = experiment default)")
	fs.BoolVar(&p.vision, "vision", true, "use the full image pipeline in the line follower")
	fs.IntVar(&p.workers, "workers", runtime.NumCPU(), "concurrent attempts (results are identical for any value)")
	fs.BoolVar(&p.metrics, "metrics", false, "print the per-layer delay budget and metric counters after the experiment")
	fs.StringVar(&p.traceOut, "trace-out", "", "write per-message spans as Chrome trace-event JSON to this file (table2)")
	fs.BoolVar(&p.spans, "spans", false, "print an ASCII waterfall of each run's end-to-end trace (table2)")
	fs.StringVar(&p.faults, "faults", "chaos", "fault plan for the resilience and soak commands: builtin name or JSON file path")
	fs.StringVar(&p.radioName, "radio", string(core.RadioITSG5), "radio backend for the scenario commands: its-g5, cv2x-pc5 or cv2x-uu")
	fs.StringVar(&p.stations, "stations", "", "comma-separated vehicle densities for the city command (default 100,300,1000)")
	fs.IntVar(&p.rsus, "rsus", 0, "road-side unit count for the city command (0 = default)")
	fs.DurationVar(&p.duration, "duration", 0, "simulated time per city density, or the soak's load time (0 = default)")
	fs.BoolVar(&p.dcc, "dcc", true, "enable reactive DCC for the city command")
	fs.StringVar(&p.blackbox, "blackbox", "", "directory for flight-recorder post-mortems of anomalous resilience runs")
	fs.BoolVar(&p.progress, "progress", false, "report run progress on stderr (never perturbs results)")
	fs.IntVar(&p.soakStations, "soak-stations", 0, "hosted station count for the soak command (0 = 500)")
	fs.Float64Var(&p.rps, "rps", 0, "aggregate request rate for the soak command (0 = 400)")
	fs.StringVar(&p.thresholds, "thresholds", "", "JSON ceilings file the soak result must satisfy")
	return fs
}

// run executes the command line, writing the command's report to stdout.
func run(args []string, stdout io.Writer) error {
	name, p, err := parse(args)
	if err != nil {
		return err
	}
	if c, ok := lookup(name); ok {
		return c.run(p, stdout)
	}
	for _, c := range commands {
		if !c.inAll {
			continue
		}
		if err := c.run(p, stdout); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// scenario returns the options of the commands that run the paper's
// scenario.
func (p params) scenario() experiments.ScenarioOptions {
	opt := experiments.ScenarioOptions{
		BaseSeed:  p.seed,
		Runs:      p.runs,
		UseVision: p.vision,
		Workers:   p.workers,
		Radio:     p.radio,
		Trace:     p.traceOut != "" || p.spans,
	}
	if p.progress {
		opt.Progress = stderrProgress()
	}
	return opt
}

// loadFaultPlan resolves -faults: a readable file parses as a JSON
// plan, otherwise the name must be a builtin.
func loadFaultPlan(arg string) (faults.Plan, error) {
	if data, err := os.ReadFile(arg); err == nil {
		plan, err := faults.ParsePlan(data)
		if err != nil {
			return faults.Plan{}, fmt.Errorf("fault plan %s: %w", arg, err)
		}
		return plan, nil
	}
	if plan, ok := faults.BuiltinPlan(arg); ok {
		return plan, nil
	}
	return faults.Plan{}, fmt.Errorf("unknown fault plan %q (builtins: %s; or pass a JSON file path)",
		arg, strings.Join(faults.Builtins(), " "))
}

// stderrProgress returns a -progress reporter: a completed/total line
// on stderr, throttled to ~4 Hz plus the final line. It runs on the
// campaign's decision goroutine, outside every simulation kernel, so
// it cannot perturb results (a pinned test holds the harness to that).
func stderrProgress() func(done, total int) {
	var last time.Time
	return func(done, total int) {
		if now := time.Now(); done == total || now.Sub(last) >= 250*time.Millisecond {
			last = now
			fmt.Fprintf(os.Stderr, "itsbed: %d/%d attempts\n", done, total)
		}
	}
}
