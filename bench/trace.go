package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"mams/internal/obs"
	"mams/internal/sim"
)

// procStart anchors setup_s ("process start → first timed slice") and the
// span clock.
var procStart = time.Now()

// tracer is the benchmark's own span recorder: spans are held in memory as
// obs.Span and written once, at exit, with obs.WriteChromeTrace. A nil
// tracer records nothing, so the untraced runs pay one nil check per op.
type tracer struct {
	mu    sync.Mutex
	spans []obs.Span
}

func spanClock() sim.Time { return sim.Time(time.Since(procStart)) }

// begin opens a span; ids are 1-based positions in the span slice.
func (t *tracer) begin(name, node string, parent obs.SpanID, args ...string) obs.SpanID {
	if t == nil {
		return 0
	}
	sp := obs.Span{Parent: parent, Name: name, Node: node, Start: spanClock()}
	if len(args) > 0 {
		sp.Args = make(map[string]string, len(args)/2)
		for i := 0; i+1 < len(args); i += 2 {
			sp.Args[args[i]] = args[i+1]
		}
	}
	t.mu.Lock()
	sp.ID = obs.SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp.ID
}

func (t *tracer) end(id obs.SpanID) {
	if t == nil || id == 0 {
		return
	}
	now := spanClock()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Done = true
	t.mu.Unlock()
}

// write dumps the spans as Chrome trace-event JSON (loads in Perfetto).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procSnap is the process-wide counter set read at slice and round
// boundaries — the same instants the spans start and end.
type procSnap struct {
	at      time.Time
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
	cpu     time.Duration
	steal   time.Duration // CPU time the hypervisor gave to other guests, all vCPUs
}

// readSteal reads the host-wide steal time from /proc/stat (0 where there is
// none to read). It is only ever printed beside the results, so that a run
// the neighbours spoilt can be told from a regression.
func readSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var tag string
	var f [8]uint64 // user nice system idle iowait irq softirq steal
	if _, err := fmt.Sscan(string(data), &tag, &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]); err != nil {
		return 0
	}
	return time.Duration(f[7]) * (time.Second / 100) // USER_HZ
}

// stealPct is the share of all vCPUs' time stolen between two snapshots.
func stealPct(a, b procSnap) float64 {
	return 100 * (b.steal - a.steal).Seconds() / (b.at.Sub(a.at).Seconds() * float64(runtime.NumCPU()))
}

func snapProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{
		at:      time.Now(),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
		gcPause: time.Duration(m.PauseTotalNs),
		cpu:     cpu,
		steal:   readSteal(),
	}
}
