package censorlogs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Text codec for the device-log format, modeled on the Blue Coat SG lines
// in the Syrian leak: tab-separated
//
//	<offset-seconds> <user-id> <site> <category> <allow|deny>
//
// The analyzer can therefore run over exported files, not just in-memory
// slices — the workflow Chaabane et al. actually had.

// WriteTo serializes entries, one line each. Returns bytes written. Each
// line is built in one reused buffer with the strconv calls fmt's %.3f and
// %d use, so the bytes are those of the equivalent Fprintf.
func WriteTo(w io.Writer, entries []Entry) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	var line []byte
	for _, e := range entries {
		line = strconv.AppendFloat(line[:0], e.Time.Seconds(), 'f', 3, 64)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(e.User), 10)
		line = append(line, '\t')
		line = append(line, e.Site...)
		line = append(line, '\t')
		line = append(line, e.Category...)
		line = append(line, '\t')
		line = append(line, e.Action.String()...)
		line = append(line, '\n')
		c, err := bw.Write(line)
		if err != nil {
			return n, err
		}
		n += int64(c)
	}
	return n, bw.Flush()
}

// ReadFrom parses a log previously written with WriteTo. Malformed lines
// produce an error naming the line number.
func ReadFrom(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if tabs := strings.Count(line, "\t"); tabs != 4 {
			return nil, fmt.Errorf("censorlogs: line %d: want 5 fields, got %d", lineNo, tabs+1)
		}
		secsField, rest, _ := strings.Cut(line, "\t")
		userField, rest, _ := strings.Cut(rest, "\t")
		site, rest, _ := strings.Cut(rest, "\t")
		category, actionField, _ := strings.Cut(rest, "\t")
		secs, err := strconv.ParseFloat(secsField, 64)
		if err != nil || secs < 0 {
			return nil, fmt.Errorf("censorlogs: line %d: bad timestamp %q", lineNo, secsField)
		}
		user, err := strconv.Atoi(userField)
		if err != nil || user < 0 {
			return nil, fmt.Errorf("censorlogs: line %d: bad user %q", lineNo, userField)
		}
		var action Action
		switch actionField {
		case "allow":
			action = ActionAllow
		case "deny":
			action = ActionDeny
		default:
			return nil, fmt.Errorf("censorlogs: line %d: bad action %q", lineNo, actionField)
		}
		out = append(out, Entry{
			Time:     time.Duration(secs * float64(time.Second)),
			User:     user,
			Site:     site,
			Category: category,
			Action:   action,
		})
	}
	return out, sc.Err()
}
