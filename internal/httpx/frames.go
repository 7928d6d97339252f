package httpx

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Frame codec for upgraded (hijacked) connections. After a 101 handshake
// both peers abandon HTTP framing and exchange length-prefixed binary
// frames: one type byte, a uvarint payload length, then the payload. The
// codec is deliberately tiny — it carries the invalidation subscription
// protocol, not general traffic — and symmetric, so either side of an
// upgraded connection can use the same two functions.

// MaxFramePayload bounds a single frame's payload. Invalidation frames
// carry document names and hashes, and an update's frame the updated
// co-op copy as well; a copy that would not fit travels as its name alone
// and is fetched instead, so 1 MiB bounds the frame, not the documents.
// The cap keeps a corrupt or hostile length prefix from ballooning a read.
const MaxFramePayload = 1 << 20

// ErrFrameTooLarge is returned when a frame's declared payload length
// exceeds MaxFramePayload.
var ErrFrameTooLarge = errors.New("httpx: frame payload too large")

// WriteFrame writes one frame to w: type byte, uvarint payload length,
// payload bytes, as one vectored write (writeBuffers). A nil payload
// writes a zero-length frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return ErrFrameTooLarge
	}
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = typ
	n := binary.PutUvarint(hdr[1:], uint64(len(payload)))
	bufs := net.Buffers{hdr[:1+n]}
	if len(payload) > 0 {
		bufs = append(bufs, payload)
	}
	_, err := writeBuffers(w, &bufs)
	return err
}

// ReadFrame reads one frame from br. It blocks until a full frame arrives
// or the underlying connection fails; callers own liveness (heartbeat
// frames plus a clock-side staleness check), so no deadline is imposed
// here.
func ReadFrame(br *bufio.Reader) (typ byte, payload []byte, err error) {
	typ, err = br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("httpx: frame length: %w", err)
	}
	if n > MaxFramePayload {
		return 0, nil, ErrFrameTooLarge
	}
	if n == 0 {
		return typ, nil, nil
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("httpx: frame payload: %w", err)
	}
	return typ, payload, nil
}
