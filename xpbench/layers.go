package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"expresspass/internal/netem"
)

// span is one timed interval recorded by the benchmark's own code
// around a call into a layer. Per-flow spans carry the flow ID as id.
type span struct {
	name       string
	id         int64
	start, end time.Time
}

// recorder keeps the traced pass's spans in memory. A nil recorder is
// the untraced path: every method is a no-op that reads no clock.
type recorder struct {
	spans    []span
	peakLive int
}

func (r *recorder) now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

func (r *recorder) end(name string, id int64, start time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, id: id, start: start, end: time.Now()})
}

// sampleLive records Manager.Live at a dial.
func (r *recorder) sampleLive(n int) {
	if r != nil && n > r.peakLive {
		r.peakLive = n
	}
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// layers are the repo modules the CPU profile is split into, in the
// order the per-layer metrics print. runtime takes the samples with no
// layer frame: GC, the scheduler, and the benchmark's own code.
var layers = []string{"sim", "netem", "core", "transport", "lifecycle", "obs", "runtime"}

// layerOf maps a profile function name to its layer, or "" when the
// frame belongs to no layer. dctcp counts as transport. The helper
// packages (packet, unit, stats) are not layers, so like standard
// library frames they count toward the layer that called them;
// topology and workload run only during set-up, outside the profile.
func layerOf(fn string) string {
	pkg, ok := strings.CutPrefix(fn, "expresspass/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "dctcp":
		return "transport"
	case "sim", "netem", "core", "transport", "lifecycle", "obs":
		return pkg
	}
	return ""
}

// tracedPass runs one pass with spans on and a CPU profile around the
// run span, and returns the per-layer metrics it yields.
func tracedPass(w workloadDef, pc passConfig) (pass, map[string]float64, error) {
	rec := &recorder{}
	pc.rec = rec
	prof, err := os.CreateTemp(pc.tmpDir, "cpu-*.pprof")
	if err != nil {
		return pass{}, nil, fmt.Errorf("cpu profile: %w", err)
	}
	defer os.Remove(prof.Name())
	defer prof.Close()
	var ms0, ms1 runtime.MemStats
	runtime.GC()

	c0 := cpuTime()
	in, err := w.setup(pc)
	if err != nil {
		return pass{}, nil, err
	}
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		return pass{}, nil, fmt.Errorf("cpu profile: %w", err)
	}
	runErr := in.run()
	pprof.StopCPUProfile()
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&ms1)
	st := in.collect()
	in.discard()
	if runErr != nil {
		return pass{}, nil, fmt.Errorf("trace output: %w", runErr)
	}
	shares, err := cpuShares(prof.Name())
	if err != nil {
		return pass{}, nil, err
	}

	run := rec.total("run")
	p := pass{setup: rec.total("setup.topology") + rec.total("setup.workload") + rec.total("setup.manager"),
		run: run, wall: run, cpu: cpu, stats: st, digest: st.digest()}
	m := map[string]float64{}
	for _, l := range layers {
		m[l+".cpu_share"] = shares[l]
	}
	dial, retire := rec.total("lifecycle.dial"), rec.total("lifecycle.retire")
	events := float64(in.eng.Executed())
	m["sim.events"] = events
	m["sim.events_per_s"] = events / p.run.Seconds()
	m["sim.max_pending"] = float64(in.eng.MaxPending())
	m["sim.rescheduled"] = float64(in.eng.Rescheduled())
	m["sim.run_self_s"] = (p.run - dial - retire).Seconds()

	var txPkts uint64
	var maxQ float64
	for _, port := range in.net.AllPorts() {
		ps := port.Stats()
		txPkts += ps.TxPackets
		if _, onSwitch := port.Owner().(*netem.Switch); onSwitch && float64(ps.DataQueueMaxBytes) > maxQ {
			maxQ = float64(ps.DataQueueMaxBytes)
		}
	}
	var hostPayload float64
	for _, h := range in.hosts {
		hostPayload += float64(h.NIC().Stats().TxPayload)
	}
	var flowBytes float64
	for _, s := range in.specs {
		flowBytes += float64(s.Size)
	}
	m["netem.tx_packets"] = float64(txPkts)
	m["netem.credit_drops"] = float64(st.creditDrops)
	m["netem.data_drops"] = float64(st.dataDrops)
	m["netem.max_queue_kb"] = maxQ / 1e3
	m["netem.credit_drop_ratio"] = ratio(float64(st.creditDrops), float64(st.creditsSent))
	m["core.credits_sent"] = float64(st.creditsSent)
	m["core.credit_waste_ratio"] = ratio(float64(st.creditsWasted), float64(st.creditsRecv))
	m["transport.goodput_ratio"] = ratio(flowBytes, hostPayload)
	m["lifecycle.dial_s"] = dial.Seconds()
	m["lifecycle.dial_us_per_flow"] = ratio(dial.Seconds()*1e6, float64(len(in.specs)))
	m["lifecycle.retire_s"] = retire.Seconds()
	m["lifecycle.peak_live"] = float64(rec.peakLive)
	m["topology.build_s"] = rec.total("setup.topology").Seconds()
	m["workload.generate_s"] = rec.total("setup.workload").Seconds()
	m["obs.trace_records"] = float64(st.traceRecords)
	m["obs.trace_bytes"] = float64(st.traceBytes)
	m["obs.trace_bytes_per_record"] = ratio(float64(st.traceBytes), float64(st.traceRecords))
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.alloc_bytes_per_event"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), events)
	return p, m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuShares attributes each CPU-profile sample to the innermost frame
// in a layer package (so strconv under trace encoding counts as obs);
// samples with no such frame go to runtime. It reads the profile
// through `go tool pprof -traces`.
func cpuShares(profPath string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profPath).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces splits `go tool pprof -traces` output by layer. After a
// header, the output lists each distinct stack between dashed lines:
// the first line holds the CPU time of its samples and the leaf
// function, and each later line one caller, outward.
func parseTraces(text string) (map[string]float64, error) {
	byLayer := map[string]time.Duration{}
	var total, value time.Duration
	layer, inStacks, first := "", false, false
	flush := func() {
		if layer == "" {
			layer = "runtime"
		}
		byLayer[layer] += value
		total += value
		value, layer = 0, ""
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----") {
			if inStacks {
				flush()
			}
			inStacks, first = true, true
			continue
		}
		f := strings.Fields(line)
		if !inStacks || len(f) == 0 {
			continue
		}
		if first {
			first = false
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof trace line %q", line)
			}
			value, f = d, f[1:]
		}
		if layer == "" {
			layer = layerOf(f[0])
		}
	}
	if inStacks {
		flush()
	}
	out := map[string]float64{}
	for l, v := range byLayer {
		out[l] = ratio(float64(v), float64(total))
	}
	return out, nil
}
