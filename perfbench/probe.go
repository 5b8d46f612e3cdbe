package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// usage is what the process consumed over one timed interval.
type usage struct {
	cpu       time.Duration // user + sys
	stealFrac float64       // host steal share of all CPU time, machine-wide
	gcCount   uint32
	gcPause   time.Duration
	rssPeak   int64 // VmHWM: peak resident set, mapped file pages included
}

// probe snapshots the counters a usage is the difference of.
type probe struct {
	cpu          time.Duration
	steal, ticks uint64
	gcNum        uint32
	gcPause      uint64
}

func startProbe() probe {
	var p probe
	p.cpu = cpuTime()
	p.steal, p.ticks = hostTicks()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gcNum, p.gcPause = ms.NumGC, ms.PauseTotalNs
	return p
}

func (p probe) stop() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, ticks := hostTicks()
	u := usage{
		cpu:     cpuTime() - p.cpu,
		gcCount: ms.NumGC - p.gcNum,
		gcPause: time.Duration(ms.PauseTotalNs - p.gcPause),
		rssPeak: peakRSS(),
	}
	if ticks > p.ticks {
		u.stealFrac = float64(steal-p.steal) / float64(ticks-p.ticks)
	}
	return u
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total of all ticks.
func hostTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already included in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS makes VmHWM restart from the current resident set, so the
// peak a timed run reports excludes input generation.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns VmHWM in bytes, or -1 when it cannot be read.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			var kb int64
			if _, err := fmt.Sscanf(string(bytes.TrimSpace(rest)), "%d kB", &kb); err == nil {
				return kb << 10
			}
		}
	}
	return -1
}

// heapSampler records the peak of live heap objects, sampled every few
// milliseconds from runtime/metrics (which does not stop the world).
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

const heapSamplePeriod = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}
