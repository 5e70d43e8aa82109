package transport

import (
	"errors"
	"time"

	"lunasolar/internal/wire"
)

// The message-oriented stacks (tcpstack, rdma) put one wire.EBS header in
// front of every Message and Response; these four functions are the only
// place the two representations are mapped onto each other. Payload bytes
// and CRC lists travel beside the header and stay with the caller. Solar
// (core) borrows the response pair for the error flags of a failed read.

// RequestHeader returns the EBS header that carries req.
func RequestHeader(req *Message) wire.EBS {
	return wire.EBS{
		Version: wire.EBSVersion, Op: req.Op, Flags: req.Flags,
		VDisk: req.VDisk, SegmentID: req.SegmentID, LBA: req.LBA,
		Gen: req.Gen, BlockLen: uint32(req.ReadLen),
	}
}

// ResponseHeader returns the EBS header that carries resp.
func ResponseHeader(resp *Response) wire.EBS {
	h := wire.EBS{
		Version:  wire.EBSVersion,
		ServerNS: uint32(resp.ServerWall.Nanoseconds()),
		SSDNS:    uint32(resp.SSDTime.Nanoseconds()),
	}
	// An error survives the wire as a header flag, from which
	// ResponseFromHeader rebuilds ErrNotOwner or ErrRemote.
	switch {
	case errors.Is(resp.Err, ErrNotOwner):
		h.Flags = wire.EBSFlagReject
	case resp.Err != nil:
		h.Flags = wire.EBSFlagError
	}
	return h
}

// MessageFromHeader rebuilds the request of type op that h carried in front
// of data.
func MessageFromHeader(op uint8, h wire.EBS, data []byte) Message {
	return Message{
		Op: op, VDisk: h.VDisk, SegmentID: h.SegmentID, LBA: h.LBA,
		Gen: h.Gen, Flags: h.Flags, ReadLen: int(h.BlockLen), Data: data,
	}
}

// ResponseFromHeader rebuilds the response h carried in front of data.
func ResponseFromHeader(h wire.EBS, data []byte) Response {
	resp := Response{
		Data:       data,
		ServerWall: time.Duration(h.ServerNS),
		SSDTime:    time.Duration(h.SSDNS),
	}
	switch {
	case h.Flags&wire.EBSFlagReject != 0:
		resp.Err = ErrNotOwner
	case h.Flags&wire.EBSFlagError != 0:
		resp.Err = ErrRemote
	}
	return resp
}
