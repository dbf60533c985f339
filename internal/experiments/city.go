package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"itsbed/internal/campaign"
	"itsbed/internal/clock"
	"itsbed/internal/core"
	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ca"
	"itsbed/internal/its/facilities/den"
	"itsbed/internal/its/messages"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/stack"
	"itsbed/internal/stats"
	"itsbed/internal/trace"
	"itsbed/internal/track"
	"itsbed/internal/units"
	"itsbed/internal/world"
)

// CityOptions configures the city-scale density sweep (SCALE-1): a
// synthetic road-grid city with n CAM-chattering vehicles under
// reactive DCC and a handful of RSUs geo-broadcasting hazard DENMs.
// The sweep reports, per density, the channel-busy ratio the stations
// measure, the DCC state they settle in, the packet-delivery ratio
// over the receivers the grid does not cull (see CityRow.PDR), and the
// end-to-end DENM latency (mean/max) from RSU trigger to OBU
// application.
type CityOptions struct {
	BaseSeed int64
	// Stations lists the vehicle densities to sweep. Empty selects
	// {100, 300, 1000}.
	Stations []int
	// RSUs places this many road-side units on an even intersection
	// lattice (zero selects 4).
	RSUs int
	// Duration of simulated time per density (zero selects 5 s).
	Duration time.Duration
	// DENMInterval is each RSU's hazard re-trigger period (zero
	// selects 1 s; each trigger is a fresh ActionID).
	DENMInterval time.Duration
	// Workers bounds concurrent density runs (<= 0 selects
	// runtime.NumCPU()). Results are bit-identical for any value.
	Workers int
	// City geometry (zero values select a 5×5 grid of 100 m blocks —
	// small enough that the top densities push the channel into the
	// DCC Active/Restrictive bands).
	City world.CityConfig
	// DisableGrid forces the O(N²) brute-force medium, for identity
	// checks and benchmarks.
	DisableGrid bool
	// DisableDCC turns the reactive controller off, leaving CAM
	// generation to the standard EN 302 637-2 triggers alone.
	DisableDCC bool
}

func (o CityOptions) withDefaults() CityOptions {
	if len(o.Stations) == 0 {
		o.Stations = []int{100, 300, 1000}
	}
	if o.RSUs <= 0 {
		o.RSUs = 4
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.DENMInterval <= 0 {
		o.DENMInterval = time.Second
	}
	if o.City.BlocksX <= 0 {
		o.City.BlocksX = 5
	}
	if o.City.BlocksY <= 0 {
		o.City.BlocksY = 5
	}
	if o.City.BlockSize <= 0 {
		o.City.BlockSize = 100
	}
	return o
}

// cityPathLoss is an open suburban 5.9 GHz link budget: mild exponent
// so carrier sense spans a few blocks, light bounded shadowing.
func cityPathLoss() radio.PathLossModel {
	return radio.PathLossModel{Exponent: 2.75, ReferenceLossDB: 47.9, ShadowingSigmaDB: 2}
}

// CityRow is one density's outcome.
type CityRow struct {
	Stations int
	// Radio totals.
	FramesSent      uint64
	FramesDelivered uint64
	FramesLost      uint64
	FramesCulled    uint64
	GridActive      bool
	// TxPerStation is the mean transmission attempts per station per
	// second — the visible effect of DCC throttling.
	TxPerStation float64
	// MeanCBR averages the stations' smoothed channel-busy ratio at
	// the end of the run.
	MeanCBR float64
	// DCCStates counts vehicles per reactive state at the end of the
	// run (Relaxed, Active1–3, Restrictive).
	DCCStates [5]int
	// PDR is FramesDelivered over delivered + lost − culled: every
	// reception the medium evaluated, less those the grid culled as out
	// of range. The default 5×5 city of 100 m blocks lies within the
	// culling radius (about 517 m at the default radio settings), so
	// FramesCulled is 0 there and PDR is over every other station.
	PDR float64
	// DENMDeliveries counts DENM application deliveries across all
	// vehicles; DENMLatencyMS summarises trigger→application latency
	// (FormatCity prints its mean and max).
	DENMDeliveries int
	DENMLatencyMS  stats.Summary
}

// cityRecorders pools the runs' flight recorders. A reset recorder
// keeps its interned stations and their ring slabs, and every run names
// its stations alike, so a run on a reused recorder allocates no rings.
// A recorder serves one run at a time, and only that run's kernel
// goroutine records into it, so it takes no lock; the pool's Get and
// Put order its hand-over between the sweep's workers.
var cityRecorders = sync.Pool{New: func() any { return flight.NewRecorder(0) }}

// cityRun simulates one density. The outcome is a pure function of
// (seed, n, opt): all randomness flows from named kernel streams.
func cityRun(seed int64, n int, opt CityOptions) (CityRow, error) {
	row := CityRow{Stations: n}
	kernel := sim.NewKernel(seed)
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		return row, err
	}
	city := world.NewCity(opt.City)
	// The black-box recorder stays on even at the 1000-station density:
	// appends are O(1), lock-free stores into preallocated rings and
	// never disturb the grid-culling identity, so recording is free
	// determinism-wise.
	// Nothing reads it once the run is over, so it goes back to the pool.
	rec := cityRecorders.Get().(*flight.Recorder)
	defer cityRecorders.Put(rec)
	rec.Reset()
	sink := trace.Sink{Flight: rec}
	medium := radio.NewMedium(kernel, radio.MediumConfig{
		PathLoss:    cityPathLoss(),
		DisableGrid: opt.DisableGrid,
		Sink:        sink,
	})
	sc := core.Scene{Kernel: kernel, Backend: medium, Frame: frame, NTP: clock.DefaultLANNTP(), Sink: sink}

	// Vehicle flows: rectangular loops on the road grid at urban
	// speeds, phase-shifted so the fleet spreads over the streets.
	flows := kernel.Rand("city.flows")
	vehicles := make([]*stack.Station, n)
	var denmLatMS []float64
	triggers := make(map[messages.ActionID]time.Duration)
	for i := 0; i < n; i++ {
		route := city.RandomRoute(flows)
		mob := &loopMobility{
			line:   route,
			speed:  12 + flows.Float64()*8,
			offset: flows.Float64() * route.Length(),
			now:    kernel.Now,
			frame:  frame,
		}
		st, err := sc.Station(stack.Config{
			Name:              fmt.Sprintf("veh%04d", i),
			Role:              stack.RoleOBU,
			StationID:         units.StationID(5000 + i),
			Mobility:          mob,
			EnableDCC:         !opt.DisableDCC,
			DisableForwarding: true,
		})
		if err != nil {
			return row, err
		}
		st.OnDENM = func(d *messages.DENM) {
			if t0, ok := triggers[d.Management.ActionID]; ok {
				denmLatMS = append(denmLatMS, ms(kernel.Now()-t0))
			}
		}
		vehicles[i] = st
		st.Start()
	}

	// RSUs on an even intersection lattice, each re-advertising a
	// hazard at its own position with a fresh ActionID per period.
	for i, pos := range city.RSUPositions(opt.RSUs) {
		rsu, err := sc.Station(stack.Config{
			Name:              fmt.Sprintf("rsu%02d", i),
			Role:              stack.RoleRSU,
			StationID:         units.StationID(900 + i),
			Mobility:          sc.At(pos),
			DisableForwarding: true,
		})
		if err != nil {
			return row, err
		}
		rsu.Start()
		event := den.EventRequest{
			EventType:       messages.EventType{CauseCode: messages.CauseHazardousLocationObstacleOnTheRoad},
			Position:        frame.ToGeodetic(pos),
			Quality:         3,
			RelevanceRadius: 250,
		}
		start := 500*time.Millisecond + time.Duration(i)*123*time.Millisecond
		kernel.Every(start, opt.DENMInterval, func() {
			if id, err := rsu.DEN.Trigger(event); err == nil {
				triggers[id] = kernel.Now()
			}
		})
	}

	kernel.Run(opt.Duration)

	row.FramesSent = medium.FramesSent
	row.FramesDelivered = medium.FramesDelivered
	row.FramesLost = medium.FramesLost
	row.FramesCulled = medium.FramesCulled
	row.GridActive = medium.GridActive()
	row.TxPerStation = float64(medium.FramesSent) / opt.Duration.Seconds() / float64(n+opt.RSUs)
	var cbrSum float64
	for _, st := range vehicles {
		if st.DCC != nil {
			cbrSum += st.DCC.CBR()
			s := st.DCC.State()
			if s >= len(row.DCCStates) {
				s = len(row.DCCStates) - 1
			}
			row.DCCStates[s]++
		}
		row.DENMDeliveries += int(st.DeliveredDENMs)
	}
	row.MeanCBR = cbrSum / float64(n)
	if expected := row.FramesDelivered + row.FramesLost - row.FramesCulled; expected > 0 {
		row.PDR = float64(row.FramesDelivered) / float64(expected)
	}
	row.DENMLatencyMS = stats.Summarize(denmLatMS)
	return row, nil
}

// CitySweep runs the density sweep; each density is an independent
// deterministic simulation, so rows are bit-identical for any worker
// count.
func CitySweep(opt CityOptions) ([]CityRow, error) {
	opt = opt.withDefaults()
	return campaign.Map(campaign.Options{Workers: opt.Workers}, len(opt.Stations), func(i int) (CityRow, error) {
		return cityRun(opt.BaseSeed+int64(i)*9973, opt.Stations[i], opt)
	})
}

// FormatCity renders the density table.
func FormatCity(rows []CityRow, opt CityOptions) string {
	opt = opt.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "SCALE-1: city density sweep (%dx%d blocks of %.0f m, %d RSUs, %v per run)\n",
		opt.City.BlocksX, opt.City.BlocksY, opt.City.BlockSize, opt.RSUs, opt.Duration)
	fmt.Fprintf(&b, "  %8s %10s %8s %7s %6s %22s %7s %16s\n",
		"stations", "frames", "tx/s/st", "CBR", "PDR", "DCC R/A1/A2/A3/Rst", "DENMs", "DENM lat ms")
	for _, r := range rows {
		states := fmt.Sprintf("%d/%d/%d/%d/%d",
			r.DCCStates[0], r.DCCStates[1], r.DCCStates[2], r.DCCStates[3], r.DCCStates[4])
		fmt.Fprintf(&b, "  %8d %10d %8.2f %7.3f %6.3f %22s %7d %8.1f/%6.1f\n",
			r.Stations, r.FramesSent, r.TxPerStation, r.MeanCBR, r.PDR,
			states, r.DENMDeliveries, r.DENMLatencyMS.Mean, r.DENMLatencyMS.Max)
	}
	b.WriteString("Shape: density raises the measured CBR; DCC moves stations out of\n")
	b.WriteString("Relaxed and throttles CAMs, trading beacon rate for channel stability.\n")
	return b.String()
}

// loopMobility drives a station around a closed route at constant
// speed — the light-weight vehicle model of the synthetic city (no
// body dynamics, no perception). Its position is a function of
// simulated time alone, so it keeps the last point it computed: the
// medium places every receiver of every completion, and every waiting
// station places every ongoing sender, many times per instant.
type loopMobility struct {
	line   *track.Line
	speed  float64
	offset float64
	now    func() time.Duration
	frame  *geo.Frame
	// at and pos are the last instant placed and its point, valid once
	// placed is set.
	at     time.Duration
	pos    geo.Point
	placed bool
}

// arc is the route position at simulated time now.
func (m *loopMobility) arc(now time.Duration) float64 {
	return m.offset + m.speed*now.Seconds()
}

// Position implements stack.Mobility.
func (m *loopMobility) Position() geo.Point {
	if now := m.now(); !m.placed || now != m.at {
		m.at, m.pos, m.placed = now, m.line.LoopPointAt(m.arc(now)), true
	}
	return m.pos
}

// VehicleState implements stack.Mobility.
func (m *loopMobility) VehicleState() ca.VehicleState {
	return ca.VehicleState{
		Position:   m.frame.ToGeodetic(m.Position()),
		SpeedMS:    m.speed,
		HeadingRad: m.line.LoopHeadingAt(m.arc(m.now())),
		Length:     4.3,
		Width:      1.8,
	}
}
