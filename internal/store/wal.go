package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// On-disk frame format, shared by segments and snapshots:
//
//	[4-byte little-endian payload length][4-byte CRC32-IEEE of payload][payload]
//
// The payload is one JSON-encoded Record. A reader that hits a frame it
// cannot trust — short header, short payload, absurd length, CRC mismatch —
// has no way to resynchronize, so it stops consuming that file; whether the
// damage is a tolerable torn tail or mid-file corruption is the caller's
// call (it depends on whether anything newer exists).
const (
	frameHeader = 8
	// maxFrame bounds one record on disk. Job results are at most a few
	// hundred KB; a larger length field is corruption, not data.
	maxFrame = 16 << 20
)

// diskFile names one file of the store directory. Index positions point
// at it, so it outlives the segment that wrote it.
type diskFile struct {
	seq  uint64
	snap bool
	path string
}

// pos is where one frame lies: n payload bytes behind a frame header at
// off in file.
type pos struct {
	file *diskFile
	off  int64
	n    int
}

// segment is the append target: the active WAL segment.
type segment struct {
	*diskFile
	f    *os.File
	w    *bufio.Writer
	size int64 // bytes written so far, buffered ones included
}

func segmentName(seq uint64, snap bool) string {
	prefix := "wal"
	if snap {
		prefix = "snap"
	}
	return fmt.Sprintf("%s-%016x.log", prefix, seq)
}

// parseSegmentName inverts segmentName; ok is false for foreign files.
func parseSegmentName(name string) (seq uint64, snap, ok bool) {
	body := name
	switch {
	case strings.HasPrefix(name, "wal-"):
		body = strings.TrimPrefix(name, "wal-")
	case strings.HasPrefix(name, "snap-"):
		body, snap = strings.TrimPrefix(name, "snap-"), true
	default:
		return 0, false, false
	}
	body, found := strings.CutSuffix(body, ".log")
	if !found {
		return 0, false, false
	}
	seq, err := strconv.ParseUint(body, 16, 64)
	if err != nil {
		return 0, false, false
	}
	return seq, snap, true
}

func createSegment(dir string, seq uint64) (*segment, error) {
	path := filepath.Join(dir, segmentName(seq, false))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &segment{diskFile: &diskFile{seq: seq, path: path}, f: f, w: bufio.NewWriterSize(f, 64<<10)}, nil
}

// syncDir makes a created, renamed, or removed directory entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeFrameLocked appends one framed payload to the active segment's
// buffered writer and returns where it will lie once flushed. Caller holds
// s.mu and has bumped no counters yet.
func (s *Store) writeFrameLocked(payload []byte) (pos, error) {
	seg := s.active
	at := pos{file: seg.diskFile, off: seg.size, n: len(payload)}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := seg.w.Write(hdr[:]); err != nil {
		return pos{}, err
	}
	if _, err := seg.w.Write(payload); err != nil {
		return pos{}, err
	}
	seg.size += frameHeader + int64(len(payload))
	return at, nil
}

// readFrame reads the frame at back into buf (grown as needed) and returns
// it whole, header included, once its length field and CRC32 check out:
// the bytes a position names are trusted no further than the bytes a scan
// reads.
func readFrame(f io.ReaderAt, at pos, buf []byte) ([]byte, error) {
	size := frameHeader + at.n
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := f.ReadAt(buf, at.off); err != nil {
		return nil, err
	}
	if n := binary.LittleEndian.Uint32(buf[0:4]); int(n) != at.n {
		return nil, fmt.Errorf("frame length %d, indexed as %d", n, at.n)
	}
	if crc32.ChecksumIEEE(buf[frameHeader:]) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, errors.New("frame checksum mismatch")
	}
	return buf, nil
}

// scanSegment reads one file frame by frame, applying every decodable
// record to the index. It returns the records applied, the records
// skipped for per-record corruption (intact frame, broken JSON), the byte
// offset just past the last cleanly-framed record, and whether the scan
// stopped at structural damage (short or CRC-failed frame) before the end
// of the file. Only real I/O failures are returned as err.
func (s *Store) scanSegment(file *diskFile) (applied, skipped, goodOff int64, damaged bool, err error) {
	f, err := os.Open(file.path)
	if err != nil {
		return 0, 0, 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, false, err
	}
	size := fi.Size()
	r := bufio.NewReaderSize(f, 64<<10)
	s.lastOp = ""
	var payload []byte // reused: a record's Data is decoded into its own copy
	for {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF on a frame boundary ends the scan; a partial
			// header is a torn write.
			return applied, skipped, goodOff, err != io.EOF, nil
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxFrame || goodOff+frameHeader+n > size {
			return applied, skipped, goodOff, true, nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return applied, skipped, goodOff, true, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			return applied, skipped, goodOff, true, nil
		}
		at := pos{file: file, off: goodOff, n: int(n)}
		goodOff += frameHeader + n
		s.totalFrames++ // the frame occupies disk either way
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			skipped++
			s.lastOp = ""
			continue
		}
		s.lastOp = rec.Op
		s.applyLocked(rec, at)
		applied++
	}
}
