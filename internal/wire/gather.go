package wire

// Vectored-encode helpers for the zero-copy data path. Scatter-gather
// frames keep the RPC/EBS headers in a small pooled prefix and attach the
// payload by reference, so header encoding must be able to target a
// caller-supplied prefix buffer without touching payload bytes. These
// helpers are the single place the header layout (RPC immediately followed
// by EBS) is spelled out for gathered frames.

// HeadersSize is the combined length of the RPC and EBS headers — the
// prefix of every data frame and gathered record.
const HeadersSize = RPCSize + EBSSize

// RecordHeaderSize is the byte-stream record prefix tcpstack frames RPCs
// with: a u32 total record length followed by the RPC and EBS headers.
const RecordHeaderSize = 4 + HeadersSize

// EncodeHeaders writes the RPC and EBS headers contiguously into
// b[:HeadersSize]. It is the vectored form of the per-frame header build:
// the caller gathers payload bytes after the prefix by reference.
func EncodeHeaders(b []byte, rpc *RPC, ebs *EBS) error {
	if len(b) < HeadersSize {
		return ErrShort
	}
	if err := rpc.Encode(b); err != nil {
		return err
	}
	return ebs.Encode(b[RPCSize:])
}

// EncodeRecordHeader writes tcpstack's record prefix into
// b[:RecordHeaderSize]: the total record length (header + payload bytes)
// followed by the RPC and EBS headers.
func EncodeRecordHeader(b []byte, totalLen int, rpc *RPC, ebs *EBS) error {
	if len(b) < RecordHeaderSize {
		return ErrShort
	}
	be.PutUint32(b[0:], uint32(totalLen))
	return EncodeHeaders(b[4:], rpc, ebs)
}
