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
//	itsbed cdf [-n N]        # EXT-1 large-N latency CDF + fits
//	itsbed radios [-n N]     # EXT-2 ITS-G5 vs cellular comparison
//	itsbed platoon [-n N]    # EXT-3 platoon detection-to-action
//	itsbed baseline [-n N]   # EXT-4 blind-corner V2X vs onboard-only
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
//	itsbed all               # everything above (resilience, city, soak and bakeoff excluded)
//
// Common flags: -seed S, -runs R, -vision=(true|false), -workers W,
// -metrics, -trace-out FILE, -spans. Flags may sit on both sides of
// the command name ("-seed 7 table2 -runs 4"); anything else after the
// command is an error. Runs execute concurrently on W workers (default: all
// CPUs); results — including the -metrics and trace output — are
// bit-identical for every worker count.
//
// -radio selects the radio backend for the scenario commands (table2,
// table3, fig10, fig11, resilience): its-g5 (default, the paper's
// 802.11p stack), cv2x-pc5 (C-V2X mode-4 sidelink with semi-persistent
// scheduling) or cv2x-uu (C-V2X infrastructure path through the
// base-station/core hop). Every station of the run, background load
// included, attaches to that one backend. The bakeoff command runs the
// Table II chain over all three backends and prints per-backend
// latency and PDR rows; the radios command (EXT-2) runs the cv2x-uu
// path under the 5G URLLC, 5G eMBB and LTE profiles. Any other command,
// all included, fails on a -radio other than its-g5 rather than
// silently printing ITS-G5 numbers.
//
// -faults selects the fault plan for the resilience command: either
// the name of a builtin plan (blackout, burst-loss, crash-rsu,
// crash-obu, camera-dropout, http-flaky, chaos) or the path of a JSON
// plan file. The sweep injects the plan into every run with the
// vehicle's fail-safe watchdog and the edge trigger retries enabled,
// and reports the outcome distribution (warned stop / fail-safe stop /
// miss) plus the latency inflation versus the fault-free baseline.
//
// -blackbox DIR makes the resilience command write flight-recorder
// post-mortems into DIR: every run that trips an anomaly trigger (a
// miss or fail-safe outcome, a 2→5 total above the 100 ms SLO, or any
// injected fault window) dumps its black-box event ring as JSONL plus
// an ASCII timeline. The recorder is always on, so the dump needs no
// re-run; contents are bit-identical for every -workers value. File
// notices go to stderr, keeping stdout golden-stable.
//
// -progress prints a completed/total attempts line on stderr while a
// campaign runs. It observes the deterministic decision path only and
// never perturbs results.
//
// The cpm command runs the occluded-pedestrian crossing with and
// without the Collective Perception service under identical seeds: a
// road-side camera is the only sensor with line of sight, and the
// study compares how early the vehicle brakes when the RSU shares its
// perceived objects in CPMs versus warning with a conventional DENM
// once the pedestrian reaches the lane. Uses -seed, -runs, -workers.
//
// The soak command boots an in-process multiplexed daemon hosting
// -soak-stations stations (default 500) and hammers it with the
// deterministic load harness at -rps for -duration while the fault
// plan (-faults; default: the builtin soak plan) injects API
// timeouts/errors and churns the station table. It prints the latency
// table (p50/p95/p99 per endpoint), shed/deadline counts, mailbox
// drops, peak heap and the goroutine-leak bracket. -thresholds FILE
// checks the result against a committed ceilings file and fails the
// process on violation — the CI soak-smoke gate.
//
// The city command simulates a synthetic road-grid city with DCC-
// throttled CAM traffic and RSU hazard DENMs, and prints a per-density
// table of channel-busy ratio, DCC state occupancy, packet-delivery
// ratio and DENM latency. Its flags: -stations is a comma-separated
// density list (default 100,300,1000), -rsus the road-side unit count,
// -duration the simulated time per density, -grid=false forces the
// brute-force O(N²) medium instead of the spatial culling grid, and
// -dcc=false disables the reactive congestion controller.
//
// -metrics prints, after the table2 output, the per-layer delay
// budget of the warning chain (radio / geonet / facilities /
// openc2x-poll / actuation) plus the merged metrics snapshot of every
// accepted run; after the resilience report, the merged metrics of the
// faulted runs.
//
// -trace-out writes, for table2, every recorded per-message span as a
// Chrome trace-event JSON file loadable in Perfetto (ui.perfetto.dev)
// or chrome://tracing. -spans prints an ASCII waterfall of each run's
// end-to-end denm.chain trace instead. Like -radio, -metrics, -spans,
// -trace-out and -blackbox fail on a command that would ignore them
// (all takes the table2 ones).
package main

import (
	"context"
	"flag"
	"fmt"
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "itsbed:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("itsbed", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "base random seed")
	runs := fs.Int("runs", 0, "number of runs (0 = experiment default)")
	n := fs.Int("n", 0, "sample count for the extension studies (0 = default)")
	vision := fs.Bool("vision", true, "use the full image pipeline in the line follower")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent scenario runs (results are identical for any value)")
	showMetrics := fs.Bool("metrics", false, "print the per-layer delay budget and metric counters after the experiment")
	traceOut := fs.String("trace-out", "", "write per-message spans as Chrome trace-event JSON to this file (table2)")
	showSpans := fs.Bool("spans", false, "print an ASCII waterfall of each run's end-to-end trace (table2)")
	faultPlan := fs.String("faults", "chaos", "fault plan for the resilience command: builtin name or JSON file path")
	radioName := fs.String("radio", "its-g5", "radio backend for the scenario commands: its-g5, cv2x-pc5 or cv2x-uu")
	stations := fs.String("stations", "", "comma-separated vehicle densities for the city command (default 100,300,1000)")
	rsus := fs.Int("rsus", 0, "road-side unit count for the city command (0 = default)")
	duration := fs.Duration("duration", 0, "simulated time per city density (0 = default)")
	useGrid := fs.Bool("grid", true, "use the spatial culling grid for the city command (false = brute force)")
	useDCC := fs.Bool("dcc", true, "enable reactive DCC for the city command")
	blackbox := fs.String("blackbox", "", "directory for flight-recorder post-mortems of anomalous resilience runs")
	progress := fs.Bool("progress", false, "report run progress on stderr (never perturbs results)")
	soakStations := fs.Int("soak-stations", 0, "hosted station count for the soak command (0 = 500)")
	rps := fs.Float64("rps", 0, "aggregate request rate for the soak command (0 = 400)")
	thresholds := fs.String("thresholds", "", "JSON ceilings file the soak result must satisfy (CI gate)")
	// Flags may sit on both sides of the command
	// ("-workers 1 city -stations 10").
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := "all"
	if fs.NArg() > 0 {
		cmd = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q after command %s", fs.Arg(0), cmd)
	}
	faultsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "faults" {
			faultsSet = true
		}
	})
	radioKind, err := core.ParseRadio(*radioName)
	if err != nil {
		return err
	}
	opt := experiments.ScenarioOptions{
		BaseSeed:  *seed,
		Runs:      *runs,
		UseVision: *vision,
		Workers:   *workers,
		Radio:     radioKind,
		Trace:     *traceOut != "" || *showSpans,
	}
	if *progress {
		opt.Progress = stderrProgress()
	}

	dispatch := map[string]func() error{
		"table1":      func() error { return printTable1() },
		"table2":      func() error { return printTable2(opt, *showMetrics, *traceOut, *showSpans) },
		"table3":      func() error { return printTable3(opt) },
		"fig7":        func() error { return printFig7(*seed) },
		"fig10":       func() error { return printFig10(opt) },
		"fig11":       func() error { return printFig11(opt) },
		"cdf":         func() error { return printCDF(*seed, *n, *workers) },
		"radios":      func() error { return printRadios(*seed, *n, *workers) },
		"platoon":     func() error { return printPlatoon(*seed, *n) },
		"baseline":    func() error { return printBaseline(*seed, *n) },
		"poll-sweep":  func() error { return printPollSweep(*seed, *n, *workers) },
		"fps-sweep":   func() error { return printFPSSweep(*seed, *n, *workers) },
		"load-sweep":  func() error { return printLoadSweep(*seed, *n, *workers) },
		"obstruction": func() error { return printObstruction(*seed, *n, *workers) },
		"platoon-acc": func() error { return printPlatoonACC(*seed, *n, *workers) },
		"ntp-sweep":   func() error { return printNTPSweep(*seed, *n, *workers) },
		"resilience":  func() error { return printResilience(opt, *faultPlan, *showMetrics, *blackbox) },
		"city": func() error {
			return printCity(*seed, *stations, *rsus, *duration, *workers, !*useGrid, !*useDCC)
		},
		"cpm":     func() error { return printCPM(*seed, *runs, *workers) },
		"bakeoff": func() error { return printBakeoff(*seed, *runs, *workers, *vision) },
		"soak": func() error {
			planArg := *faultPlan
			if !faultsSet {
				// The resilience default (chaos) targets the scenario sim;
				// soaks default to the overload plan.
				planArg = "soak"
			}
			return printSoak(*seed, *soakStations, *rps, *duration, *workers, planArg, *thresholds)
		},
	}
	if _, ok := dispatch[cmd]; !ok && cmd != "all" {
		return fmt.Errorf("unknown command %q (try: table1 table2 table3 fig7 fig10 fig11 cdf radios platoon baseline poll-sweep fps-sweep load-sweep obstruction platoon-acc ntp-sweep resilience city cpm soak bakeoff all)", cmd)
	}
	// A command that would ignore a flag rejects it instead of printing
	// output without it; all runs table2 but not resilience.
	for _, f := range []struct {
		flag string
		set  bool
		cmds []string
	}{
		{"-radio " + string(radioKind), radioKind != core.RadioITSG5, []string{"table2", "table3", "fig10", "fig11", "resilience"}},
		{"-metrics", *showMetrics, []string{"table2", "resilience", "all"}},
		{"-spans", *showSpans, []string{"table2", "all"}},
		{"-trace-out", *traceOut != "", []string{"table2", "all"}},
		{"-blackbox", *blackbox != "", []string{"resilience"}},
	} {
		if f.set && !slices.Contains(f.cmds, cmd) {
			return fmt.Errorf("%s ignores %s; only %s take it", cmd, f.flag, strings.Join(f.cmds, ", "))
		}
	}
	if cmd == "all" {
		order := []string{
			"table1", "table2", "table3", "fig7", "fig10", "fig11",
			"cdf", "radios", "platoon", "baseline",
			"poll-sweep", "fps-sweep", "load-sweep", "obstruction", "platoon-acc", "ntp-sweep",
		}
		for _, name := range order {
			if err := dispatch[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	return dispatch[cmd]()
}

func printCity(seed int64, stations string, rsus int, duration time.Duration, workers int, disableGrid, disableDCC bool) error {
	opt := experiments.CityOptions{
		BaseSeed:    seed + 13000,
		RSUs:        rsus,
		Duration:    duration,
		Workers:     workers,
		DisableGrid: disableGrid,
		DisableDCC:  disableDCC,
	}
	if stations != "" {
		for _, part := range strings.Split(stations, ",") {
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
	fmt.Print(experiments.FormatCity(rows, opt))
	return nil
}

// printBakeoff runs the BAKEOFF-1 radio-technology comparison.
func printBakeoff(seed int64, runs, workers int, vision bool) error {
	res, err := experiments.Bakeoff(experiments.BakeoffOptions{
		BaseSeed:  seed,
		Runs:      runs,
		Workers:   workers,
		UseVision: vision,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func printCPM(seed int64, runs, workers int) error {
	res, err := experiments.CPMCampaign(experiments.CPMOptions{
		BaseSeed: seed,
		Runs:     runs,
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatCPM(res))
	return nil
}

// printSoak runs the SOAK-1 service-mode overload campaign.
func printSoak(seed int64, stations int, rps float64, duration time.Duration, workers int, planArg, thresholdsPath string) error {
	plan, err := loadFaultPlan(planArg)
	if err != nil {
		return err
	}
	report, err := loadgen.RunSoak(context.Background(), loadgen.SoakOptions{
		Stations: stations,
		RPS:      rps,
		Duration: duration,
		Workers:  workers,
		Seed:     seed,
		Plan:     plan,
	})
	if err != nil {
		return err
	}
	fmt.Printf("SOAK-1 service-mode overload campaign (plan %q, seed %d)\n", plan.Name, seed)
	fmt.Print(report.Format())
	if thresholdsPath != "" {
		data, err := os.ReadFile(thresholdsPath)
		if err != nil {
			return err
		}
		th, err := loadgen.ParseThresholds(data)
		if err != nil {
			return err
		}
		if err := report.Result.Check(th); err != nil {
			return err
		}
		fmt.Println("thresholds: PASS")
	}
	return nil
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

func printResilience(opt experiments.ScenarioOptions, planArg string, showMetrics bool, blackbox string) error {
	plan, err := loadFaultPlan(planArg)
	if err != nil {
		return err
	}
	res, err := experiments.Resilience(experiments.ResilienceOptions{
		BaseSeed:  opt.BaseSeed,
		Runs:      opt.Runs,
		Workers:   opt.Workers,
		UseVision: opt.UseVision,
		Radio:     opt.Radio,
		Plan:      plan,
		Blackbox:  blackbox,
		Progress:  opt.Progress,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if showMetrics {
		fmt.Println()
		fmt.Print(res.Metrics.Format())
	}
	// Post-mortem notices go to stderr so the report stays byte-stable
	// for golden comparisons.
	for _, f := range res.Dumps {
		fmt.Fprintln(os.Stderr, "itsbed: wrote post-mortem", f)
	}
	return nil
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

func printPollSweep(seed int64, n, workers int) error {
	rows, err := experiments.PollIntervalSweep(seed+7000, n, nil, workers)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatPollSweep(rows))
	return nil
}

func printFPSSweep(seed int64, n, workers int) error {
	rows, err := experiments.CameraFPSSweep(seed+7100, n, nil, workers)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFPSSweep(rows))
	return nil
}

func printLoadSweep(seed int64, n, workers int) error {
	rows, err := experiments.ChannelLoadSweep(seed+7200, n, nil, workers)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatLoadSweep(rows))
	return nil
}

func printPlatoonACC(seed int64, n, workers int) error {
	rows, err := experiments.PlatoonACC(seed+9000, n, nil, workers)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatPlatoonACC(rows))
	return nil
}

func printNTPSweep(seed int64, n, workers int) error {
	rows, err := experiments.NTPQualitySweep(seed+11000, n, workers)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatNTPSweep(rows))
	return nil
}

func printObstruction(seed int64, n, workers int) error {
	rows, err := experiments.ObstructedLink(seed+7300, n, workers)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatObstruction(rows))
	return nil
}

func printTable1() error {
	fmt.Println("TABLE I: DENM cause codes (EN 302 637-3 registry subset)")
	fmt.Printf("%-6s %-48s %s\n", "code", "cause", "sub-causes")
	for _, c := range messages.AllCauses() {
		fmt.Printf("%-6d %-48s %d defined\n", c.Code, c.Description, len(c.SubCauses))
	}
	for _, code := range []messages.CauseCode{
		messages.CauseHazardousLocationSurfaceCondition,
		messages.CauseHazardousLocationObstacleOnTheRoad,
		messages.CauseCollisionRisk,
		messages.CauseDangerousSituation,
	} {
		info, _ := messages.Lookup(code)
		fmt.Printf("\n%d %s:\n", code, info.Description)
		for sub := messages.SubCauseCode(0); sub < 12; sub++ {
			if d, ok := info.SubCauses[sub]; ok {
				fmt.Printf("  %2d  %s\n", sub, d)
			}
		}
	}
	return nil
}

func printTable2(opt experiments.ScenarioOptions, showMetrics bool, traceOut string, showSpans bool) error {
	res, err := experiments.TableII(opt)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if showMetrics {
		fmt.Println()
		fmt.Print(res.LayerBudget().Format())
		fmt.Println()
		fmt.Print(res.Metrics.Format())
	}
	if traceOut != "" {
		if err := os.WriteFile(traceOut, tracing.ChromeTrace(res.Traces), 0o644); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("\nwrote %d spans to %s (load in ui.perfetto.dev or chrome://tracing)\n",
			len(res.Traces.Spans), traceOut)
	}
	if showSpans {
		chains := res.Traces.FilterTraces(func(root tracing.SpanRecord) bool {
			return root.Name == "denm.chain"
		})
		fmt.Println()
		fmt.Print(tracing.Waterfall(chains))
	}
	return nil
}

func printTable3(opt experiments.ScenarioOptions) error {
	res, err := experiments.TableIII(opt)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func printFig7(seed int64) error {
	fmt.Print(experiments.Figure7(seed, 0).Format())
	return nil
}

func printFig10(opt experiments.ScenarioOptions) error {
	res, err := experiments.Figure10(opt)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func printFig11(opt experiments.ScenarioOptions) error {
	res, err := experiments.Figure11(opt)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func printCDF(seed int64, n, workers int) error {
	res, err := experiments.LatencyCDF(seed+1000, n, workers)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func printRadios(seed int64, n, workers int) error {
	res, err := experiments.RadioComparison(seed+2000, n, workers)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func printPlatoon(seed int64, n int) error {
	if n <= 0 {
		n = 8
	}
	for _, mode := range []experiments.PlatoonMode{experiments.PlatoonITSG5, experiments.PlatoonHybrid} {
		res, err := experiments.PlatoonStudy(seed+3000, n, 4, mode)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}
	return nil
}

func printBaseline(seed int64, n int) error {
	res, err := experiments.BlindCorner(seed+4000, n)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}
