package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"expresspass/internal/core"
	"expresspass/internal/dctcp"
	"expresspass/internal/lifecycle"
	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

// workloadDef is one traffic mix. The fabric workloads follow §6.3
// (Poisson arrivals at load 0.6 on the 192-host 3:1 tree); the shuffle
// follows Fig 17 on a 16-host star. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workloadDef struct {
	name  string
	star  bool // Fig 17 all-to-all shuffle on a star; else the §6.3 fabric
	dctcp bool // DCTCP baseline instead of ExpressPass
	jsonl bool // every trace event type JSONL-encoded to a file
	dist  func() *workload.SizeDist
	// volume is the offered bytes of a fabric workload: Poisson flows
	// are kept until their sizes sum to it. A fixed volume rather than a
	// fixed flow count keeps the work of a pass nearly independent of
	// the seed, which heavy-tailed sizes would otherwise swing by ±10%.
	volume unit.Bytes
	// setupBatch is how many set-ups one setup_s sample times, so that
	// a sample lasts about 0.1 s of CPU at most: the fabric takes about
	// 50 ms to set up, the star under 1 ms.
	setupBatch int
}

var workloads = []workloadDef{
	{name: "xp-websearch", dist: workload.WebSearch, volume: 640 * unit.MB, setupBatch: 2},
	{name: "dctcp-websearch", dctcp: true, dist: workload.WebSearch, volume: 640 * unit.MB, setupBatch: 2},
	{name: "xp-shuffle-traced", star: true, jsonl: true, setupBatch: 64},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const (
	fabricRTT  = 52 * sim.Microsecond // §6.3 base RTT, as in the realistic experiments
	shuffleRTT = 50 * sim.Microsecond // Fig 17
	linkRate   = 10 * unit.Gbps
	load       = 0.6
	// firstArrival lets arrivals start just after zero so dial-time
	// events order deterministically.
	firstArrival = 10 * sim.Microsecond
)

// shuffleShape sizes the star shuffle: hosts, tasks per host, bytes
// per task pair.
type shuffleShape struct {
	hosts, tasks int
	bytes        unit.Bytes
}

// passConfig selects what one pass does besides simulating.
type passConfig struct {
	seed   uint64
	tiny   bool   // self-test size: a few flows per workload
	tmpDir string // where the JSONL trace file lives during a pass
	rec    *recorder
	heap   *heapProbe
	// deadline, when nonzero, replaces the workload's simulated-time
	// deadline; self-tests use it to force unfinished flows.
	deadline sim.Duration
}

func (w workloadDef) volumeOf(tiny bool) unit.Bytes {
	if tiny {
		return 24 * w.dist().Mean()
	}
	return w.volume
}

func (w workloadDef) shuffle(tiny bool) shuffleShape {
	if tiny {
		return shuffleShape{hosts: 4, tasks: 1, bytes: 20 * unit.KB}
	}
	return shuffleShape{hosts: 16, tasks: 2, bytes: 200 * unit.KB}
}

// instance is one built simulation: everything setup produces and the
// run consumes.
type instance struct {
	rec      *recorder
	eng      *sim.Engine
	net      *netem.Network
	hosts    []*netem.Host
	specs    []workload.FlowSpec
	mgr      *lifecycle.Manager
	deadline sim.Time
	heap     *heapProbe
	// lastRetire is the simulated time of the last retirement: the end
	// of the run in simulated time.
	lastRetire sim.Time

	trace        *obs.Tracer
	traceOut     *countingFile
	tracePath    string
	traceRecords uint64

	creditsSent, creditsRecv, creditsWasted uint64
}

// setup builds the topology, the flow list and the manager, timing
// each as a span. The flow list comes from its own RNG stream seeded
// by the benchmark seed, so dctcp-websearch runs exactly the flow list
// of xp-websearch.
func (w workloadDef) setup(pc passConfig) (*instance, error) {
	in := &instance{rec: pc.rec, heap: pc.heap}
	rec := pc.rec

	t0 := rec.now()
	in.eng = sim.New(pc.seed)
	rtt := fabricRTT
	var uplink unit.Rate
	if w.star {
		rtt = shuffleRTT
		if w.jsonl {
			if err := in.openTrace(pc.tmpDir); err != nil {
				return nil, err
			}
			// The network picks the tracer up from the active runtime at
			// construction, so an armed invariant checker tees it.
			obs.SetActive(obs.NewRuntime(obs.Config{Tracer: in.trace}))
		}
		st := topology.NewStar(in.eng, w.shuffle(pc.tiny).hosts, topology.Config{LinkRate: linkRate})
		obs.SetActive(nil)
		in.net, in.hosts = st.Net, st.Hosts
	} else {
		tcfg := topology.Config{LinkRate: linkRate, CoreRate: linkRate}
		if w.dctcp {
			tcfg.ECNThreshold = dctcp.RecommendedK(linkRate)
		}
		ot := topology.NewOversubTree(in.eng, topology.PaperEval(), tcfg)
		in.net, in.hosts, uplink = ot.Net, ot.Hosts, ot.UplinkCapacity()
	}
	if w.dctcp {
		// Conn transports dial mid-run; declare the serial execution
		// they need before the first event.
		in.net.RequireSerial()
	}
	rec.end("setup.topology", 0, t0)

	t0 = rec.now()
	rng := sim.NewRand(pc.seed)
	if w.star {
		sh := w.shuffle(pc.tiny)
		in.specs = workload.Shuffle(rng, workload.ShuffleConfig{
			Hosts: sh.hosts, TasksPerHost: sh.tasks, Bytes: sh.bytes,
			StartJitter: 1 * sim.Millisecond,
		})
		ideal := float64(sh.bytes) * float64(len(in.specs)) * 8 / (float64(sh.hosts) * float64(linkRate) * 0.9)
		in.deadline = sim.Seconds(ideal*20) + 2*sim.Second
	} else {
		p := topology.PaperEval()
		nh := len(in.hosts)
		// Load is defined against the ToR uplink layer; only flows
		// leaving their rack cross it.
		pCross := float64(nh-p.HostsPerToR) / float64(nh-1)
		dist, volume := w.dist(), w.volumeOf(pc.tiny)
		specs, err := workload.Poisson(rng, workload.PoissonConfig{
			Hosts: nh, Dist: dist, Load: load / pCross, RefRate: uplink,
			Flows: int(2 * volume / dist.Mean()), Start: firstArrival,
		})
		if err != nil {
			return nil, err
		}
		var sum unit.Bytes
		for i, s := range specs {
			if sum += s.Size; sum >= volume {
				in.specs = specs[:i+1]
				break
			}
		}
		if in.specs == nil {
			return nil, fmt.Errorf("%s: %d flows offer %v, short of %v", w.name, len(specs), sum, volume)
		}
		in.deadline = in.specs[len(in.specs)-1].Start + 4*sim.Second
	}
	if pc.deadline != 0 {
		in.deadline = pc.deadline
	}
	rec.end("setup.workload", 0, t0)

	t0 = rec.now()
	xp := core.Config{Alpha: 1.0 / 16, WInit: 1.0 / 16, BaseRTT: rtt}
	in.mgr = lifecycle.NewManager(lifecycle.Config{
		Engine: in.eng,
		Specs:  in.specs,
		Dial: func(s workload.FlowSpec, _ int) (*transport.Flow, lifecycle.Handle) {
			rec.sampleLive(in.mgr.Live())
			d0 := rec.now()
			f := transport.NewFlow(in.net, in.hosts[s.Src], in.hosts[s.Dst], s.Size, s.Start)
			h := &flowHandle{in: in, id: int64(f.ID)}
			if w.dctcp {
				h.conn = transport.NewConn(f, dctcp.New(dctcp.Config{InitAlpha: 1}),
					transport.ConnConfig{ECN: true, MinCwnd: 2})
			} else {
				h.xp = core.Dial(f, xp)
			}
			rec.end("lifecycle.dial", h.id, d0)
			return f, h
		},
		Class: func(f *transport.Flow) string { return workload.SizeClass(f.Size) },
		Grace: 10 * rtt,
	})
	rec.end("setup.manager", 0, t0)
	return in, nil
}

// heapProbe measures the live heap with a full collection at
// heapSamples points of simulated time spread evenly over a pass, up
// to the end of an earlier pass of the same seed, and keeps the largest. The samples sit at fixed
// points of the simulation, so for a given seed the peak repeats; the
// live heap the collector happens to mark during a normal run depends
// on when it runs and how long its concurrent mark takes, and VmHWM
// depends on both.
type heapProbe struct {
	end  sim.Time // the run's end in simulated time, from an earlier pass
	peak uint64
}

const heapSamples = 40

func (h *heapProbe) sample() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.peak = max(h.peak, ms.HeapAlloc)
}

// flowHandle wraps one flow's transport for the manager: it folds the
// credit counters and records a span around Retire.
type flowHandle struct {
	in   *instance
	id   int64
	xp   *core.Session   // ExpressPass
	conn *transport.Conn // DCTCP
}

func (h *flowHandle) Quiesced() bool {
	if h.xp != nil {
		return h.xp.Quiesced()
	}
	return h.conn.Quiesced()
}

func (h *flowHandle) Retire() {
	t0 := h.in.rec.now()
	h.in.lastRetire = h.in.eng.Now()
	h.fold()
	if h.xp != nil {
		h.xp.Retire()
	} else {
		h.conn.Retire()
	}
	h.in.rec.end("lifecycle.retire", h.id, t0)
}

func (h *flowHandle) fold() {
	if h.xp != nil {
		h.in.creditsSent += h.xp.CreditsSent()
		h.in.creditsRecv += h.xp.CreditsReceived()
		h.in.creditsWasted += h.xp.CreditsWasted()
	}
}

// countingFile counts the bytes the JSONL sink writes to its file.
type countingFile struct {
	f *os.File
	n int64
}

func (c *countingFile) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingFile) Close() error { return c.f.Close() }

func (in *instance) openTrace(dir string) error {
	f, err := os.CreateTemp(dir, "trace-*.jsonl")
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	in.tracePath = f.Name()
	in.traceOut = &countingFile{f: f}
	in.trace = obs.NewTracer(obs.NewJSONLSink(in.traceOut))
	return nil
}

// discard releases what setup created outside the heap. The trace
// file is scratch, so errors closing or removing it change nothing.
func (in *instance) discard() {
	if in.trace != nil {
		_ = in.trace.Close()
		in.trace = nil
	}
	if in.tracePath != "" {
		_ = os.Remove(in.tracePath)
	}
}

// run starts the manager and runs the engine until every flow has
// drained or the deadline passes. A traced JSONL file is flushed and
// closed inside the run, since writing it is part of the work. With a
// heap probe the engine runs in heapSamples slices of simulated time,
// sampling the heap after each; events run in the same order.
func (in *instance) run() error {
	t0 := in.rec.now()
	in.mgr.Start()
	if h := in.heap; h != nil && h.end > 0 {
		step := max(1, h.end/heapSamples)
		for t := step; t <= h.end && t < in.deadline; t += step {
			in.eng.RunUntil(t)
			h.sample()
		}
	}
	in.eng.RunUntil(in.deadline)
	var err error
	if in.trace != nil {
		in.traceRecords = in.trace.Count()
		err = in.trace.Close()
		in.trace = nil
	}
	in.rec.end("run", 0, t0)
	return err
}

// simStats are the simulated statistics of one pass. For a fixed seed
// they repeat exactly, so they feed the correctness digest.
type simStats struct {
	flows, finished int
	fct             map[string]*stats.Dist
	events          uint64
	dataDrops       uint64
	creditDrops     uint64
	creditsSent     uint64
	creditsRecv     uint64
	creditsWasted   uint64
	traceRecords    uint64
	traceBytes      int64
}

func (in *instance) collect() simStats {
	s := simStats{
		flows:    len(in.specs),
		finished: in.mgr.Finished(),
		fct:      map[string]*stats.Dist{},
		events:   in.eng.Executed(),
	}
	for cls, d := range in.mgr.FCTs() {
		s.fct[cls] = d
	}
	// Flows the reaper had not retired when the run ended: fold them the
	// way retirement would have.
	in.mgr.ForEachLive(func(f *transport.Flow, h lifecycle.Handle) {
		if f.Finished {
			cls := workload.SizeClass(f.Size)
			if s.fct[cls] == nil {
				s.fct[cls] = stats.NewDist()
			}
			s.fct[cls].Observe(f.FCT().Seconds())
		}
		h.(*flowHandle).fold()
	})
	s.dataDrops = in.net.TotalDataDrops()
	s.creditDrops = in.net.TotalCreditDrops()
	s.creditsSent, s.creditsRecv, s.creditsWasted = in.creditsSent, in.creditsRecv, in.creditsWasted
	if in.traceOut != nil {
		s.traceRecords, s.traceBytes = in.traceRecords, in.traceOut.n
	}
	return s
}

// canonical renders the digested statistics: per-class FCT
// count/p50/p99/max, events, drops and credit counts.
func (s simStats) canonical() string {
	var b strings.Builder
	classes := make([]string, 0, len(s.fct))
	for c := range s.fct {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(&b, "flows=%d finished=%d\n", s.flows, s.finished)
	for _, c := range classes {
		d := s.fct[c]
		sum := d.Summary()
		fmt.Fprintf(&b, "fct %s n=%d p50=%s p99=%s max=%s\n", c, sum.N, g(sum.P50), g(sum.P99), g(sum.Max))
	}
	fmt.Fprintf(&b, "events=%d data_drops=%d credit_drops=%d credits_sent=%d credits_recv=%d credits_wasted=%d\n",
		s.events, s.dataDrops, s.creditDrops, s.creditsSent, s.creditsRecv, s.creditsWasted)
	return b.String()
}

func (s simStats) digest() string {
	sum := sha256.Sum256([]byte(s.canonical()))
	return hex.EncodeToString(sum[:16])
}

// pass is one setup and run with its host-time measurements.
type pass struct {
	// setup is the CPU time of the set-up; run is the run's wall time
	// less the steal that could have hit it (see runTime); wall is the
	// run's raw wall time; cpu covers set-up and run.
	setup, run, wall, cpu time.Duration
	end                   sim.Time // the run's end in simulated time
	stats                 simStats
	digest                string
}

// runPass builds and runs one instance of w.
func (w workloadDef) runPass(pc passConfig) (pass, error) {
	c0 := cpuTime()
	in, err := w.setup(pc)
	if err != nil {
		return pass{}, err
	}
	c1 := cpuTime()
	s0, t0 := stolen(), time.Now()
	runErr := in.run()
	wall := time.Since(t0)
	s1, c2 := stolen(), cpuTime()
	p := pass{setup: c1 - c0, run: runTime(wall, s1-s0, c2-c1), wall: wall, cpu: c2 - c0, end: in.lastRetire}
	p.stats = in.collect()
	in.discard()
	if runErr != nil {
		return pass{}, fmt.Errorf("trace output: %w", runErr)
	}
	p.digest = p.stats.digest()
	return p, nil
}

// setupBatchTime sets up w.setupBatch instances, throwing each away,
// and returns the CPU time per set-up.
func (w workloadDef) setupBatchTime(pc passConfig) (time.Duration, error) {
	c0 := cpuTime()
	for range w.setupBatch {
		in, err := w.setup(pc)
		if err != nil {
			return 0, err
		}
		in.discard()
	}
	return (cpuTime() - c0) / time.Duration(w.setupBatch), nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolen is the time the hypervisor has taken from this VM's CPUs so
// far, summed over the CPUs; see parseSteal.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(string(b))
}

// parseSteal reads the steal column (the eighth value, in USER_HZ =
// 100 Hz ticks) of the aggregate "cpu" line of /proc/stat. A kernel
// that reports no steal gives 0.
func parseSteal(stat string) time.Duration {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// runTime is a run's wall time less the steal that could have delayed
// it, given the steal summed over every vCPU and the CPU time the
// process used during the run. The run is one thread, so it cannot
// take less wall time than its CPU time: steal beyond wall - cpu fell
// on a vCPU the run was not using, and the result is never less than
// cpu. On a shared VM, steal periods lasting minutes stretched raw wall
// time by up to 2× while CPU time barely moved.
func runTime(wall, steal, cpu time.Duration) time.Duration {
	return max(wall-steal, cpu)
}
