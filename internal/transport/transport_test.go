package transport

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"lunasolar/internal/wire"
)

func TestRTTFirstSample(t *testing.T) {
	r := NewRTT(time.Millisecond, time.Second)
	r.Observe(10 * time.Microsecond)
	if r.SRTT() != 10*time.Microsecond {
		t.Fatalf("srtt = %v", r.SRTT())
	}
	// RTO clamped to min.
	if r.RTO() != time.Millisecond {
		t.Fatalf("rto = %v", r.RTO())
	}
}

func TestRTTConverges(t *testing.T) {
	r := NewRTT(time.Microsecond, time.Second)
	for i := 0; i < 100; i++ {
		r.Observe(50 * time.Microsecond)
	}
	if got := r.SRTT(); got < 45*time.Microsecond || got > 55*time.Microsecond {
		t.Fatalf("srtt = %v after steady samples", got)
	}
	// Steady samples → variance decays → RTO approaches srtt.
	if got := r.RTO(); got > 70*time.Microsecond {
		t.Fatalf("rto = %v, want close to srtt", got)
	}
}

func TestRTTSpikesRaiseRTO(t *testing.T) {
	r := NewRTT(time.Microsecond, time.Second)
	for i := 0; i < 50; i++ {
		r.Observe(10 * time.Microsecond)
	}
	base := r.RTO()
	r.Observe(time.Millisecond)
	if r.RTO() <= base {
		t.Fatal("latency spike did not raise RTO")
	}
}

func TestRTOBackoff(t *testing.T) {
	r := NewRTT(time.Millisecond, 100*time.Millisecond)
	if got := r.Backoff(3); got != 8*time.Millisecond {
		t.Fatalf("backoff(3) = %v", got)
	}
	if got := r.Backoff(20); got != 100*time.Millisecond {
		t.Fatalf("backoff clamp = %v", got)
	}
}

func TestRTTNonPositiveSample(t *testing.T) {
	r := NewRTT(time.Millisecond, time.Second)
	r.Observe(0)
	r.Observe(-time.Second)
	if r.SRTT() <= 0 {
		t.Fatalf("srtt = %v", r.SRTT())
	}
}

// fakeClock is a minimal schedule hook: it runs callbacks immediately while
// accumulating the latency they were scheduled with.
type fakeClock struct{ elapsed time.Duration }

func (c *fakeClock) schedule(d time.Duration, fn func()) {
	c.elapsed += d
	fn()
}

func TestLoopbackNoHandler(t *testing.T) {
	clk := &fakeClock{}
	l := NewLoopback(clk.schedule, time.Microsecond, 42)
	var resp Response
	fired := false
	l.Call(7, &Message{}, func(r *Response) { resp, fired = *r, true })
	if !fired {
		t.Fatal("done was not invoked")
	}
	if resp.Err != ErrAdmission {
		t.Fatalf("err = %v, want ErrAdmission", resp.Err)
	}
}

func TestLoopbackRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	l := NewLoopback(clk.schedule, time.Microsecond, 42)
	l.SetHandler(func(src uint32, req *Message, reply func(*Response)) {
		if src != 42 {
			t.Fatalf("src = %d, want local addr 42", src)
		}
		reply(&Response{Data: []byte{1}})
	})
	var resp Response
	fired := false
	l.Call(7, &Message{}, func(r *Response) { resp, fired = *r, true })
	if !fired || resp.Err != nil || len(resp.Data) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	// Handover latency is paid in both directions.
	if clk.elapsed != 2*time.Microsecond {
		t.Fatalf("elapsed = %v, want 2µs", clk.elapsed)
	}
}

func TestIDAlloc(t *testing.T) {
	var a IDAlloc
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := a.Next()
		if id == 0 || seen[id] {
			t.Fatalf("duplicate or zero id %d", id)
		}
		seen[id] = true
	}
}

// The EBS header is the only thing that crosses the wire for a Message or a
// Response besides payload and CRCs: what goes in must come out, ErrNotOwner
// survives as the reject flag and any other error as ErrRemote.
func TestHeaderMappingsRoundTrip(t *testing.T) {
	req := Message{Op: wire.RPCReadReq, VDisk: 7, SegmentID: 9, LBA: 1 << 21, Gen: 3, Flags: wire.EBSFlagHasCRC, ReadLen: 8192}
	h := RequestHeader(&req)
	if h.Version != wire.EBSVersion || h.Op != req.Op {
		t.Fatalf("request header %+v", h)
	}
	data := []byte("payload")
	got := MessageFromHeader(req.Op, h, data)
	want := req
	want.Data = data
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, want)
	}

	resp := Response{Err: fmt.Errorf("wrapped: %w", ErrNotOwner), ServerWall: 40 * time.Microsecond, SSDTime: 25 * time.Microsecond}
	rh := ResponseHeader(&resp)
	back := ResponseFromHeader(rh, data)
	if back.Err != ErrNotOwner || back.ServerWall != resp.ServerWall || back.SSDTime != resp.SSDTime || string(back.Data) != "payload" {
		t.Fatalf("response round trip: %+v (header %+v)", back, rh)
	}
	other := ResponseHeader(&Response{Err: ErrAdmission})
	if other.Flags != wire.EBSFlagError || ResponseFromHeader(other, nil).Err != ErrRemote {
		t.Fatalf("any other error must cross as ErrRemote; header %+v", other)
	}
	if ok := ResponseHeader(&Response{}); ok.Flags != 0 || ResponseFromHeader(ok, nil).Err != nil {
		t.Fatalf("success must cross as success; header %+v", ok)
	}
}
