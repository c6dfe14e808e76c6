package censorlogs

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"
)

func TestCalibrateReqProbInverts(t *testing.T) {
	for _, target := range []float64{0.0157, 0.05, 0.5} {
		for _, reqs := range []int{10, 220, 1000} {
			p := CalibrateReqProb(target, reqs)
			got := 1 - math.Pow(1-p, float64(reqs))
			if math.Abs(got-target) > 1e-9 {
				t.Fatalf("target %v reqs %d: round-trip %v", target, reqs, got)
			}
		}
	}
	if CalibrateReqProb(0, 10) != 0 || CalibrateReqProb(1.5, 10) != 0 || CalibrateReqProb(0.5, 0) != 0 {
		t.Fatal("degenerate inputs not zero")
	}
}

func TestSyriaFractionReproduced(t *testing.T) {
	// The headline §2.2 number: ~1.57% of users touch censored content in
	// two days of logs.
	cfg := DefaultConfig()
	cfg.Users = 21000
	entries := Generate(cfg)
	rep := Analyze(entries)
	if rep.Users != cfg.Users {
		t.Fatalf("users = %d", rep.Users)
	}
	if math.Abs(rep.UserDenialFraction-0.0157) > 0.004 {
		t.Fatalf("user denial fraction = %.4f, want ~0.0157", rep.UserDenialFraction)
	}
	// 1.57%% of 21000 is ~330 users — "far too many to pursue".
	if rep.UsersWithDenial < 200 || rep.UsersWithDenial > 500 {
		t.Fatalf("users with denial = %d", rep.UsersWithDenial)
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Config{
		Users: 100, Duration: time.Hour, ReqPerUser: 50,
		Sites: 200, CensoredFrac: 0.1, CensoredReqProb: 0.01, Seed: 7,
	}
	entries := Generate(cfg)
	if len(entries) < 100*38 || len(entries) > 100*63 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Sorted by time, inside the window.
	for i := 1; i < len(entries); i++ {
		if entries[i].Time < entries[i-1].Time {
			t.Fatal("not sorted")
		}
	}
	for _, e := range entries {
		if e.Time < 0 || e.Time >= cfg.Duration {
			t.Fatalf("time out of range: %v", e.Time)
		}
		if (e.Action == ActionDeny) != (e.Category != "general") {
			t.Fatalf("category/action mismatch: %+v", e)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Users: 50, Duration: time.Hour, ReqPerUser: 20, Sites: 100,
		CensoredFrac: 0.1, CensoredReqProb: 0.05, Seed: 3}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lens differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

// TestGenerateTieOrder squeezes the log into a few nanoseconds so nearly
// every timestamp is shared, and checks that equal times keep generation
// order: the output equals a stable sort of the records as drawn.
func TestGenerateTieOrder(t *testing.T) {
	cfg := Config{Users: 60, Duration: 4 * time.Nanosecond, ReqPerUser: 20, Sites: 80,
		CensoredFrac: 0.1, CensoredReqProb: 0.2, Seed: 11}
	got := Generate(cfg)
	if ties := countTies(got); ties < len(got)/2 {
		t.Fatalf("only %d ties in %d entries", ties, len(got))
	}
	catalog, censoredCount := buildCatalog(cfg)
	recs := draw(cfg, censoredCount)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].t < recs[j].t })
	want := toEntries(recs, catalog)
	if len(got) != len(want) {
		t.Fatalf("entries = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
		if i > 0 && got[i].Time == got[i-1].Time && got[i].User < got[i-1].User {
			t.Fatalf("entry %d: user %d after user %d at the same time", i, got[i].User, got[i-1].User)
		}
	}
}

// TestGenerateAllocationGate bounds what one Generate call allocates. The
// counts come from runtime.MemStats, so unlike wall time they are the same
// on every host: the compact records and their sort buffer cost less than
// the []Entry itself, and the call makes a fixed handful of allocations
// whatever the catalog size or log length.
func TestGenerateAllocationGate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 2100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out := Generate(cfg)
	runtime.ReadMemStats(&after)
	entryBytes := float64(uintptr(len(out)) * unsafe.Sizeof(Entry{}))
	if ratio := float64(after.TotalAlloc-before.TotalAlloc) / entryBytes; ratio > 2.5 {
		t.Errorf("Generate allocated %.2fx its output's %.0f bytes, want <= 2.5x", ratio, entryBytes)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 16 {
		t.Errorf("Generate made %d allocations, want <= 16", mallocs)
	}
}

func TestAnalyzeCategoriesAndTopSites(t *testing.T) {
	entries := []Entry{
		{User: 1, Site: "censored0001.test", Category: "social-media", Action: ActionDeny},
		{User: 1, Site: "censored0001.test", Category: "social-media", Action: ActionDeny},
		{User: 2, Site: "censored0002.test", Category: "news-politics", Action: ActionDeny},
		{User: 3, Site: "site0100.test", Category: "general", Action: ActionAllow},
	}
	rep := Analyze(entries)
	if rep.TotalRequests != 4 || rep.TotalDenied != 3 {
		t.Fatalf("totals: %+v", rep)
	}
	if rep.UsersWithDenial != 2 || rep.Users != 3 {
		t.Fatalf("users: %+v", rep)
	}
	if rep.DeniedByCategory["social-media"] != 2 {
		t.Fatalf("categories: %v", rep.DeniedByCategory)
	}
	if len(rep.TopDeniedSites) != 2 || rep.TopDeniedSites[0].Site != "censored0001.test" {
		t.Fatalf("top sites: %v", rep.TopDeniedSites)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	rep := Analyze(nil)
	if rep.UserDenialFraction != 0 || rep.TotalRequests != 0 {
		t.Fatalf("empty: %+v", rep)
	}
}

func TestActionString(t *testing.T) {
	if ActionAllow.String() != "allow" || ActionDeny.String() != "deny" {
		t.Fatal("action names")
	}
}

// BenchmarkGenerateTwoDays times the two layers of E5 separately at 10 %
// of the paper's population: the generator and the analyzer.
func BenchmarkGenerateTwoDays(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Users = 2100 // 10% scale for the bench loop
	b.Run("Generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(Generate(cfg)) == 0 {
				b.Fatal("no entries")
			}
		}
	})
	b.Run("Analyze", func(b *testing.B) {
		entries := Generate(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if Analyze(entries).Users == 0 {
				b.Fatal("no users")
			}
		}
	})
}
