package workload

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// TraceRecord is one I/O in a workload trace: issue time relative to trace
// start, operation, address, and size. The on-disk format is a line-based
// CSV ("ns,op,lba,size") so traces are greppable and editable.
type TraceRecord struct {
	At    time.Duration
	Write bool
	LBA   uint64
	Size  int
}

// WriteTrace serializes records (sorted by time) to w.
func WriteTrace(w io.Writer, recs []TraceRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# ns,op,lba,size"); err != nil {
		return err
	}
	for _, r := range recs {
		op := "R"
		if r.Write {
			op = "W"
		}
		if _, err := fmt.Fprintf(bw, "%d,%s,%d,%d\n", r.At.Nanoseconds(), op, r.LBA, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace written by WriteTrace (or by hand). Records are
// returned sorted by issue time.
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	var out []TraceRecord
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("trace line %d: want 4 fields, got %d", line, len(parts))
		}
		ns, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: bad time: %v", line, err)
		}
		var write bool
		switch strings.ToUpper(strings.TrimSpace(parts[1])) {
		case "W":
			write = true
		case "R":
			write = false
		default:
			return nil, fmt.Errorf("trace line %d: bad op %q", line, parts[1])
		}
		lba, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: bad lba: %v", line, err)
		}
		size, err := strconv.Atoi(parts[3])
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("trace line %d: bad size", line)
		}
		out = append(out, TraceRecord{At: time.Duration(ns), Write: write, LBA: lba, Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}
