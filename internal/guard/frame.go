package guard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Checkpoint frames wrap a gob payload with enough metadata to tell a
// good generation from a torn or bit-flipped one without decoding it:
//
//	offset  size  field
//	     0     8  magic "FEKFCKR1"
//	     8     8  sequence number (little endian)
//	    16     8  payload length  (little endian)
//	    24     4  CRC32-C over bytes [8,24) ++ payload (Castagnoli)
//	    28     …  payload (gob stream)
//
// The CRC covers the sequence and length fields too, so a flipped length
// byte cannot masquerade as truncation of a valid frame.

var frameMagic = [8]byte{'F', 'E', 'K', 'F', 'C', 'K', 'R', '1'}

const frameHeaderLen = 28

// maxFramePayload bounds a decoded frame (1 GiB): a corrupted length
// field must not drive a giant allocation before the CRC can reject it.
const maxFramePayload = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a checkpoint frame that failed validation — torn
// (truncated) or bit-flipped (checksum mismatch).  Ring loads quarantine
// such files and fall back to the previous generation.
var ErrCorrupt = errors.New("guard: corrupt checkpoint frame")

// ErrNotFramed marks a file that does not start with the frame magic —
// typically a legacy plain-gob checkpoint, which callers may still decode
// directly.
var ErrNotFramed = errors.New("guard: not a framed checkpoint")

// EncodeFrame writes one framed payload to w.
func EncodeFrame(w io.Writer, seq uint64, payload []byte) error {
	var hdr [frameHeaderLen]byte
	copy(hdr[:8], frameMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(payload)))
	crc := crc32.Update(0, crcTable, hdr[8:24])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[24:28], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// DecodeFrame reads and validates one framed payload: ErrNotFramed when
// the magic is absent, ErrCorrupt (wrapped with detail) when the frame is
// truncated or fails its checksum.
func DecodeFrame(r io.Reader) (seq uint64, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return 0, nil, fmt.Errorf("%w: short magic: %v", ErrCorrupt, err)
	}
	if hdr[:8][0] != frameMagic[0] || string(hdr[:8]) != string(frameMagic[:]) {
		return 0, nil, ErrNotFramed
	}
	if _, err := io.ReadFull(r, hdr[8:]); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	seq = binary.LittleEndian.Uint64(hdr[8:16])
	n := binary.LittleEndian.Uint64(hdr[16:24])
	want := binary.LittleEndian.Uint32(hdr[24:28])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	}
	// Read through a limit rather than allocating n up front: a flipped
	// length byte must not cost a 1 GiB buffer for a short file.
	payload, err = io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && uint64(len(payload)) != n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload (%d of %d bytes): %v", ErrCorrupt, len(payload), n, err)
	}
	crc := crc32.Update(0, crcTable, hdr[8:24])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != want {
		return 0, nil, fmt.Errorf("%w: checksum mismatch (got %08x, frame says %08x)", ErrCorrupt, crc, want)
	}
	// A frame must end where its length says: trailing garbage means the
	// file was appended to or spliced and cannot be trusted.
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != io.EOF {
		return 0, nil, fmt.Errorf("%w: trailing bytes after payload", ErrCorrupt)
	}
	return seq, payload, nil
}
