package trainer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"tasq/internal/durable"
)

// The pipeline persists as a framed gob stream — the "model binary" of the
// paper's Figure 4 model store. A fixed magic header and a format version
// precede the gob payload so a corrupted, truncated or foreign file fails
// with a typed error instead of a raw gob decode error, and so future
// format migrations can dispatch on the version. All reachable state
// (boosted trees, neural weights, scalers, parameter scaling,
// configuration) round-trips.

// pipelineMagic identifies a TASQ pipeline file. Eight bytes, never
// reused across incompatible layouts.
var pipelineMagic = [8]byte{'T', 'A', 'S', 'Q', 'P', 'C', 'C', '\n'}

// PipelineFormatVersion is the current on-disk format version written
// after the magic header.
const PipelineFormatVersion uint32 = 1

// Typed persistence errors. Callers distinguish "not one of ours"
// (ErrBadMagic), "ours but from the future" (ErrFormatVersion) and "ours
// but damaged" (ErrCorrupt) via errors.Is.
var (
	// ErrBadMagic means the stream does not start with the pipeline
	// magic header — a foreign, pre-versioning or truncated-at-birth
	// file.
	ErrBadMagic = errors.New("trainer: not a TASQ pipeline file (bad magic header)")
	// ErrFormatVersion means the magic matched but the format version is
	// not one this build can read.
	ErrFormatVersion = errors.New("trainer: unsupported pipeline format version")
	// ErrCorrupt means the header was intact but the payload failed to
	// decode — a truncated or bit-flipped stream.
	ErrCorrupt = errors.New("trainer: corrupt pipeline payload")
)

// SavePipeline writes the pipeline to w: magic header, format version,
// payload length, gob payload, then the SHA-256 of the payload. The
// trailing digest lets LoadPipeline reject a bit-flipped payload that
// still happens to be well-formed gob.
func SavePipeline(p *Pipeline, w io.Writer) error {
	if p == nil {
		return errors.New("trainer: nil pipeline")
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(p); err != nil {
		return fmt.Errorf("trainer: encoding pipeline: %w", err)
	}
	if _, err := w.Write(pipelineMagic[:]); err != nil {
		return fmt.Errorf("trainer: writing header: %w", err)
	}
	if err := binary.Write(w, binary.BigEndian, PipelineFormatVersion); err != nil {
		return fmt.Errorf("trainer: writing format version: %w", err)
	}
	if err := binary.Write(w, binary.BigEndian, uint64(payload.Len())); err != nil {
		return fmt.Errorf("trainer: writing payload length: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("trainer: writing payload: %w", err)
	}
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("trainer: writing checksum: %w", err)
	}
	return nil
}

// maxPipelineBytes is the largest payload length a loader accepts; a
// larger length field is corrupt.
const maxPipelineBytes = 1 << 32

// LoadPipeline reads a pipeline from r, verifying the magic header,
// format version and payload checksum before decoding.
func LoadPipeline(r io.Reader) (*Pipeline, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadMagic, err)
	}
	if !bytes.Equal(magic[:], pipelineMagic[:]) {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, magic[:])
	}
	var version uint32
	if err := binary.Read(r, binary.BigEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: reading format version: %v", ErrCorrupt, err)
	}
	if version != PipelineFormatVersion {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d",
			ErrFormatVersion, version, PipelineFormatVersion)
	}
	var length uint64
	if err := binary.Read(r, binary.BigEndian, &length); err != nil {
		return nil, fmt.Errorf("%w: reading payload length: %v", ErrCorrupt, err)
	}
	if length > maxPipelineBytes {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	// Copy rather than allocate length up front: memory grows only with
	// the bytes that actually arrive, so a header claiming gigabytes over a
	// short stream costs nothing.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(length)); err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCorrupt, err)
	}
	payload := buf.Bytes()
	var want [sha256.Size]byte
	if _, err := io.ReadFull(r, want[:]); err != nil {
		return nil, fmt.Errorf("%w: reading checksum: %v", ErrCorrupt, err)
	}
	if got := sha256.Sum256(payload); got != want {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	var p Pipeline
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrCorrupt, err)
	}
	if p.XGB == nil || p.JobScaler == nil {
		return nil, fmt.Errorf("%w: decoded pipeline is incomplete", ErrCorrupt)
	}
	return &p, nil
}

// SavePipelineFile replaces the file at path with the pipeline through
// durable.Write, so a crash mid-save can never truncate an existing model
// binary.
func SavePipelineFile(p *Pipeline, path string) error {
	if p == nil {
		return errors.New("trainer: nil pipeline")
	}
	return durable.Write(path, func(w io.Writer) error { return SavePipeline(p, w) })
}

// LoadPipelineFile reads a pipeline from a file.
func LoadPipelineFile(path string) (*Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadPipeline(f)
}
