package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail returns the p99 of xs by nearest rank, or — when fewer than 10
// samples would lie beyond the p99 — the highest percentile that still has
// 10 samples beyond it. With 10 or fewer samples it returns the maximum.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	beyond := n - (n*99+99)/100 // samples above the nearest-rank p99
	if beyond < 10 {
		beyond = 10
	}
	if i := n - 1 - beyond; i >= 0 {
		return s[i]
	}
	return s[n-1]
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocObjects    uint64
	allocBytes      uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocObjects: s[2].Value.Uint64(),
		allocBytes:   s[3].Value.Uint64(),
	}
}

// runtimeCost is the runtime's bill for a stretch of work of ops operations.
type runtimeCost struct {
	gcCPUFrac   float64
	allocsPerOp float64
	bytesPerOp  float64
}

func (a runtimeSample) costTo(b runtimeSample, ops int) runtimeCost {
	var c runtimeCost
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		c.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	if ops > 0 {
		c.allocsPerOp = float64(b.allocObjects-a.allocObjects) / float64(ops)
		c.bytesPerOp = float64(b.allocBytes-a.allocBytes) / float64(ops)
	}
	return c
}

// allocsDuring counts heap objects allocated while f runs. Only meaningful
// when nothing else allocates concurrently.
func allocsDuring(f func()) uint64 {
	before := sampleRuntime().allocObjects
	f()
	return sampleRuntime().allocObjects - before
}

// hostFingerprint names the host a result came from.
func hostFingerprint(storeDir string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"store_fs":   fsType(storeDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(abs, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// sample is one completed operation: when it ended (since the window
// opened), how long it took, and how many work units it completed.
type sample struct {
	end, latency time.Duration
	units        int
}

// A run's throughput and p50 are medians over rateSlices equal slices of the
// window, and its tail latency the median over tailSlices, so a burst of
// interference from the shared host moves a few slices, not the run's
// figure. Tails use fewer, longer slices: each needs enough samples for a
// p99 (with 1000 or more it is exact). A window with fewer than 10 samples
// per slice uses fewer slices.
const (
	rateSlices = 20
	tailSlices = 5
)

// sliceStats splits the samples by end time into n equal slices of the span
// they cover and returns each slice's throughput (units/s), median latency
// and tail latency (ms, as tail reports it).
func sliceStats(samples []sample, n int) (rates, p50s, tails []float64) {
	var span time.Duration
	for _, s := range samples {
		span = max(span, s.end)
	}
	if span == 0 {
		return nil, nil, nil
	}
	n = min(n, max(1, len(samples)/10))
	units := make([]int, n)
	lats := make([][]float64, n)
	for _, s := range samples {
		i := min(int(s.end*time.Duration(n)/span), n-1)
		units[i] += s.units
		lats[i] = append(lats[i], s.latency.Seconds()*1e3)
	}
	width := span.Seconds() / float64(n)
	for i := range units {
		rates = append(rates, float64(units[i])/width)
		p50s = append(p50s, median(lats[i]))
		tails = append(tails, tail(lats[i]))
	}
	return rates, p50s, tails
}

// reportLoop sets the three loop metrics from a window's samples.
func reportLoop(o *outcome, samples []sample) {
	rates, p50s, _ := sliceStats(samples, rateSlices)
	_, _, tails := sliceStats(samples, tailSlices)
	o.set("throughput_per_s", median(rates), "1/s")
	o.set("latency_p50_ms", median(p50s), "ms")
	o.set("latency_p99_ms", median(tails), "ms")
	o.detail["latency_samples"] = len(samples)
	o.detail["slice_throughput_per_s"] = rates
	o.detail["slice_tail_ms"] = tails
}
