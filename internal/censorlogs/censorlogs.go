// Package censorlogs generates and analyzes censorship-device logs in the
// style of the leaked Syrian Blue Coat logs analyzed by Chaabane et al.
// (IMC 2014), which the paper uses for one load-bearing number: over two
// days, 1.57 % of the user population accessed at least one censored site —
// far too many people for a surveillance system to chase by simply alarming
// on every censored request (§2.2).
//
// The generator reproduces that workload: a Zipf-popularity site catalog
// with a censored subset, per-user browsing volume, and a calibration
// helper that turns a target "fraction of users with at least one censored
// hit" into a per-request probability.
//
// Generate is built for the paper's scale (4.6 M entries at 21,000 users).
// It draws every request into a 24-byte record, radix-sorts the records by
// time (stable, so equal times keep generation order), and builds the
// []Entry once at its exact length; the output is pinned by SHA-256 digests
// in the tests.
package censorlogs

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// Action is the device's decision for one request.
type Action int

// Log actions.
const (
	ActionAllow Action = iota
	ActionDeny
)

// String returns "allow" or "deny".
func (a Action) String() string {
	if a == ActionDeny {
		return "deny"
	}
	return "allow"
}

// Entry is one log line.
type Entry struct {
	Time     time.Duration // offset into the capture
	User     int           // anonymized user id
	Site     string
	Category string // device content category
	Action   Action
}

// Config parameterizes the generator.
type Config struct {
	Users        int
	Duration     time.Duration // the leak covered 2 days
	ReqPerUser   int           // mean requests per user over Duration
	Sites        int           // catalog size
	CensoredFrac float64       // fraction of catalog censored
	// CensoredReqProb is the per-request probability of landing on a
	// censored site. Use CalibrateReqProb to hit a target user fraction.
	CensoredReqProb float64
	Seed            int64
}

// DefaultConfig mirrors the Syrian leak's shape: two days, a campus-scale
// population, calibrated to the paper's 1.57 %.
func DefaultConfig() Config {
	cfg := Config{
		Users:        21000, // the paper's campus population
		Duration:     48 * time.Hour,
		ReqPerUser:   220,
		Sites:        5000,
		CensoredFrac: 0.02,
		Seed:         1,
	}
	cfg.CensoredReqProb = CalibrateReqProb(0.0157, cfg.ReqPerUser)
	return cfg
}

// CalibrateReqProb inverts P(user has >=1 censored hit) = 1-(1-p)^reqs for
// p, so the generated logs reproduce a target user fraction.
func CalibrateReqProb(targetUserFrac float64, reqPerUser int) float64 {
	if targetUserFrac <= 0 || targetUserFrac >= 1 || reqPerUser <= 0 {
		return 0
	}
	return 1 - math.Pow(1-targetUserFrac, 1/float64(reqPerUser))
}

// categories a Blue Coat-style device stamps on denials.
var denyCategories = []string{"social-media", "news-politics", "proxy-avoidance", "video", "instant-messaging"}

// rec is one request as drawn, before the time sort: 24 bytes where an
// Entry is 56, so the sort moves less than half the memory. cat indexes
// denyCategories, or is -1 for an allowed request.
type rec struct {
	t               int64
	user, site, cat int32
}

// Generate produces the synthetic log, sorted by time. Entries with equal
// times keep generation order: by user, then by that user's request order.
//
// It draws every request from one RNG stream into a compact record, sorts
// the records with a stable LSD radix sort on the time, and only then
// builds the []Entry, once and at its exact length.
func Generate(cfg Config) []Entry {
	catalog, censoredCount := buildCatalog(cfg)
	recs := draw(cfg, censoredCount)
	recs = radixSortByTime(recs, make([]rec, len(recs)), cfg.Duration)
	return toEntries(recs, catalog)
}

// toEntries expands records into log entries, in order.
func toEntries(recs []rec, catalog []string) []Entry {
	out := make([]Entry, len(recs))
	for i, r := range recs {
		e := &out[i]
		e.Time, e.User, e.Site = time.Duration(r.t), int(r.user), catalog[r.site]
		if r.cat < 0 {
			e.Category, e.Action = "general", ActionAllow
		} else {
			e.Category, e.Action = denyCategories[r.cat], ActionDeny
		}
	}
	return out
}

// buildCatalog names the sites: censored%04d.test for the first
// censoredCount, site%04d.test after. All names share one backing string.
func buildCatalog(cfg Config) (catalog []string, censoredCount int) {
	censoredCount = int(float64(cfg.Sites) * cfg.CensoredFrac)
	ends := make([]int, cfg.Sites)
	b := make([]byte, 0, cfg.Sites*len("censored0000.test"))
	for i := range ends {
		if i < censoredCount {
			b = append(b, "censored"...)
		} else {
			b = append(b, "site"...)
		}
		for d := 1000; d > 1 && i < d; d /= 10 {
			b = append(b, '0')
		}
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ".test"...)
		ends[i] = len(b)
	}
	all, start := string(b), 0
	catalog = make([]string, cfg.Sites)
	for i, end := range ends {
		catalog[i], start = all[start:end], end
	}
	return catalog, censoredCount
}

// draw makes every request in generation order (user, then request). The
// order of RNG calls is the log's definition: changing it changes every
// entry after the first difference.
func draw(cfg Config, censoredCount int) []rec {
	maxPerUser := cfg.ReqPerUser
	if maxPerUser > 3 {
		maxPerUser += maxPerUser/2 - maxPerUser/4 // the largest spread below
	}
	recs := make([]rec, 0, max(cfg.Users, 0)*max(maxPerUser, 0))
	rng := rand.New(rand.NewSource(cfg.Seed))
	for u := 0; u < cfg.Users; u++ {
		// Poisson-ish spread: +-25% of the mean.
		n := cfg.ReqPerUser
		if n > 3 {
			n = n - n/4 + rng.Intn(n/2+1)
		}
		for r := 0; r < n; r++ {
			rc := rec{t: rng.Int63n(int64(cfg.Duration)), user: int32(u)}
			if rng.Float64() < cfg.CensoredReqProb {
				rc.site = int32(rng.Intn(max(censoredCount, 1)))
				rc.cat = int32(rng.Intn(len(denyCategories)))
			} else {
				// Zipf-ish popularity over the uncensored tail.
				rc.site = int32(censoredCount + zipfIndex(rng, cfg.Sites-censoredCount))
				rc.cat = -1
			}
			recs = append(recs, rc)
		}
	}
	return recs
}

// radixBits is the digit width of radixSortByTime: three passes cover the
// 48 bits that two days of nanoseconds need.
const radixBits = 16

// radixSortByTime stably sorts recs by t, all of which lie in [0, limit),
// using scratch (len(recs) long) as the other buffer. It returns whichever
// of the two holds the result.
func radixSortByTime(recs, scratch []rec, limit time.Duration) []rec {
	const mask = 1<<radixBits - 1
	count := make([]int, 1<<radixBits)
	for shift := 0; int64(limit-1)>>shift > 0; shift += radixBits {
		clear(count)
		for _, r := range recs {
			count[r.t>>shift&mask]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, r := range recs {
			d := r.t >> shift & mask
			scratch[count[d]] = r
			count[d]++
		}
		recs, scratch = scratch, recs
	}
	return recs
}

// zipfIndex samples an index in [0, n) with approximately 1/(i+1) weights.
func zipfIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF of the continuous 1/x density on [1, n+1).
	u := rng.Float64()
	x := math.Pow(float64(n+1), u)
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Report is the analyzer's output — the §2.2 numbers.
type Report struct {
	TotalRequests   int
	TotalDenied     int
	Users           int
	UsersWithDenial int
	// UserDenialFraction is the paper's 1.57 % statistic.
	UserDenialFraction float64
	DeniedByCategory   map[string]int
	TopDeniedSites     []SiteCount
}

// SiteCount is one (site, denials) pair.
type SiteCount struct {
	Site  string
	Count int
}

// Analyze computes the report over a log.
func Analyze(entries []Entry) Report {
	rep := Report{DeniedByCategory: make(map[string]int)}
	users := make(map[int]bool)
	denied := make(map[int]bool)
	siteDenials := make(map[string]int)
	for _, e := range entries {
		rep.TotalRequests++
		users[e.User] = true
		if e.Action == ActionDeny {
			rep.TotalDenied++
			denied[e.User] = true
			rep.DeniedByCategory[e.Category]++
			siteDenials[e.Site]++
		}
	}
	rep.Users = len(users)
	rep.UsersWithDenial = len(denied)
	if rep.Users > 0 {
		rep.UserDenialFraction = float64(rep.UsersWithDenial) / float64(rep.Users)
	}
	for site, n := range siteDenials {
		rep.TopDeniedSites = append(rep.TopDeniedSites, SiteCount{site, n})
	}
	sort.Slice(rep.TopDeniedSites, func(i, j int) bool {
		if rep.TopDeniedSites[i].Count != rep.TopDeniedSites[j].Count {
			return rep.TopDeniedSites[i].Count > rep.TopDeniedSites[j].Count
		}
		return rep.TopDeniedSites[i].Site < rep.TopDeniedSites[j].Site
	})
	if len(rep.TopDeniedSites) > 10 {
		rep.TopDeniedSites = rep.TopDeniedSites[:10]
	}
	return rep
}
