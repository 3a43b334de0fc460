package recovery

import (
	"bytes"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/ods"
)

// specStream encodes the records a fuzz input describes, four bytes per
// record (type, file, body length, body fill), and returns the stream
// with the start offset of every frame plus the stream's end.
func specStream(spec []byte) ([]byte, []int) {
	files := []string{"", "A", "TRADES"}
	var stream []byte
	starts := []int{0}
	for i := 0; i+4 <= len(spec) && i < 4*512; i += 4 {
		rec := audit.Record{
			Type: audit.RecType(spec[i]%9 + 1),
			Txn:  audit.TxnID(i/4 + 1),
			File: files[int(spec[i+1])%len(files)],
			Key:  uint64(i) << 8,
			Body: bytes.Repeat(spec[i+3:i+4], int(spec[i+2])),
		}
		stream = audit.AppendRecord(stream, &rec)
		starts = append(starts, len(stream))
	}
	return stream, starts
}

// FuzzReadStream reads a torn or truncated log through readStream in
// fuzz-chosen chunk sizes, so frames straddle chunk boundaries, and
// checks that it never panics, that its valid offset is the one a fresh
// scan from byte 0 finds, and that no torn byte lands inside the valid
// prefix.
func FuzzReadStream(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint16(0), uint8(0))
	f.Add([]byte("\x02\x02\x10A\x05\x00\x00\x00\x02\x01\xffB\x05\x00\x00\x00"), uint32(9), uint16(0), uint8(0))
	f.Add([]byte("\x02\x02\x10A\x05\x00\x00\x00\x02\x01\xffB\x05\x00\x00\x00"), uint32(300), uint16(100), uint8(1))
	f.Add(bytes.Repeat([]byte("\x02\x02\xc8Z\x05\x00\x00\x00"), 40), uint32(5000), uint16(8000), uint8(3))
	f.Fuzz(func(t *testing.T, spec []byte, cut uint32, chunk uint16, mode uint8) {
		stream, starts := specStream(spec)
		// The log sits at the front of zeroed media with some headroom.
		media := make([]byte, len(stream)+int(mode)*16)
		copy(media, stream)
		if len(stream) > 0 {
			at := int(cut) % len(stream)
			if mode%2 == 0 {
				clear(media[at:]) // truncated: nothing from at reached the media
			} else {
				media[at] ^= byte(cut>>8) | 1 // torn: one byte corrupted
			}
		}
		opts := Options{ChunkBytes: 64 + int(chunk)%(8<<10-64+1), MaxLogBytes: 1 << 30}
		data, valid, err := readStream(int64(len(media)), opts, func(off int64, buf []byte) error {
			copy(buf, media[off:])
			return nil
		})
		if err != nil {
			t.Fatalf("readStream: %v", err)
		}
		if len(data) > len(media) || !bytes.Equal(data, media[:len(data)]) {
			t.Fatalf("returned %d bytes that are not the media's prefix", len(data))
		}
		s := audit.NewScanner(data)
		for s.Next() {
		}
		if s.Offset() != valid {
			t.Fatalf("valid offset %d, fresh scan finds %d", valid, s.Offset())
		}
		// Every frame before the first altered byte is intact and valid;
		// the frame holding that byte and everything after it are not.
		want := len(stream)
		for i := range stream {
			if media[i] != stream[i] {
				for k := 1; k < len(starts); k++ {
					if i < starts[k] {
						want = starts[k-1]
						break
					}
				}
				break
			}
		}
		if valid != want {
			t.Fatalf("valid offset %d, want %d (end of the intact frames)", valid, want)
		}
	})
}

// Redo copies each committed body into a shared slab, capped so that an
// append to one row cannot reach its neighbour; a body larger than a
// slab gets a slab of its own.
func TestArenaCopies(t *testing.T) {
	var a arena
	if a.copy(nil) != nil {
		t.Error("empty body copied to non-nil")
	}
	big := bytes.Repeat([]byte{7}, slabBytes+1)
	src := []byte("ab")
	x := a.copy(src)
	y := a.copy(big)
	z := a.copy([]byte("cd"))
	src[0] = 'X'
	if string(x) != "ab" || !bytes.Equal(y, big) || string(z) != "cd" {
		t.Fatalf("copies = %q, %d bytes, %q", x, len(y), z)
	}
	for _, b := range [][]byte{x, y, z} {
		if cap(b) != len(b) {
			t.Errorf("copy of %d bytes has cap %d", len(b), cap(b))
		}
	}
	_ = append(x, 'Z')
	if w := a.copy([]byte("ef")); string(z) != "cd" || string(w) != "ef" {
		t.Errorf("append to one copy reached another: %q %q", z, w)
	}
}

// PM recovery decodes the trail in place and copies bodies into slabs:
// a recovery allocates far fewer objects than it redoes rows.
func TestRecoverPMAllocs(t *testing.T) {
	const txns = 100
	res := RunScenario(ods.PMDurability, txns, 7)
	if len(res.Errs) > 0 {
		t.Fatalf("workload errors: %v", res.Errs)
	}
	var rep Report
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		rep, _, err = res.RecoverPM(Options{}, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsRedone != 4*txns {
		t.Fatalf("redid %d rows, want %d", rep.RowsRedone, 4*txns)
	}
	if per := allocs / float64(rep.RowsRedone); per >= 2 {
		t.Errorf("recovery allocated %.0f objects for %d rows (%.2f per row), want fewer than 2 per row", allocs, rep.RowsRedone, per)
	} else {
		t.Logf("recovery allocated %.0f objects for %d rows (%.2f per row)", allocs, rep.RowsRedone, per)
	}
	res.Store.Eng.Shutdown()
}
