package censorlogs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestCodecRoundTrip(t *testing.T) {
	cfg := Config{Users: 30, Duration: time.Hour, ReqPerUser: 20, Sites: 50,
		CensoredFrac: 0.1, CensoredReqProb: 0.05, Seed: 9}
	in := Generate(cfg)
	var buf bytes.Buffer
	n, err := WriteTo(&buf, in)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	out, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("entries: %d vs %d", len(out), len(in))
	}
	for i := range in {
		if out[i].User != in[i].User || out[i].Site != in[i].Site ||
			out[i].Category != in[i].Category || out[i].Action != in[i].Action {
			t.Fatalf("entry %d: %+v vs %+v", i, out[i], in[i])
		}
		// Timestamps survive to millisecond precision.
		d := out[i].Time - in[i].Time
		if d < -time.Millisecond || d > time.Millisecond {
			t.Fatalf("entry %d time drift %v", i, d)
		}
	}
	// Analysis gives identical aggregate results either way.
	a, b := Analyze(in), Analyze(out)
	if a.TotalDenied != b.TotalDenied || a.UsersWithDenial != b.UsersWithDenial {
		t.Fatalf("analysis drift: %+v vs %+v", a, b)
	}
}

func TestReadFromSkipsCommentsAndBlank(t *testing.T) {
	text := "# device export\n\n0.500\t3\tsite01.test\tgeneral\tallow\n"
	out, err := ReadFrom(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].User != 3 || out[0].Action != ActionAllow {
		t.Fatalf("entries: %+v", out)
	}
}

func TestReadFromErrors(t *testing.T) {
	cases := []string{
		"notanumber\t1\ts\tc\tallow\n",
		"1.0\t-2\ts\tc\tallow\n",
		"1.0\t1\ts\tc\tmaybe\n",
		"1.0\t1\ts\tallow\n", // 4 fields
	}
	for _, c := range cases {
		if _, err := ReadFrom(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
		if _, err := ReadFrom(strings.NewReader(c)); err != nil && !strings.Contains(err.Error(), "line 1") {
			t.Errorf("error lacks line number: %v", err)
		}
	}
}

// TestWriteToMatchesFprintf holds WriteTo's hand-built lines to the
// fmt.Fprintf format it replaced, on a generated log plus timestamps that
// round at the third decimal.
func TestWriteToMatchesFprintf(t *testing.T) {
	cfg := Config{Users: 40, Duration: 48 * time.Hour, ReqPerUser: 30, Sites: 300,
		CensoredFrac: 0.05, CensoredReqProb: 0.05, Seed: 4}
	entries := append(Generate(cfg),
		Entry{Time: 0, User: 0, Site: "a.test", Category: "general"},
		Entry{Time: 499_999, User: 1 << 40, Site: "b.test", Category: "video", Action: ActionDeny},
		Entry{Time: 500_000, User: 7, Site: "", Category: ""},
		Entry{Time: 1_999_999_999_999, User: 12, Site: "c.test", Category: "general"},
		Entry{Time: -1, User: 3, Site: "d.test", Category: "general"},
	)
	var want bytes.Buffer
	for _, e := range entries {
		fmt.Fprintf(&want, "%.3f\t%d\t%s\t%s\t%s\n",
			e.Time.Seconds(), e.User, e.Site, e.Category, e.Action)
	}
	var got bytes.Buffer
	n, err := WriteTo(&got, entries)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(got.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, got.Len())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
