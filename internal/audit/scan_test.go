package audit

import (
	"bytes"
	"testing"
)

// interleavedStream encodes records that alternate between two file
// names with empty-File commit records in between — the shape that
// exercises the scanner's file-name reuse.
func interleavedStream() ([]byte, []Record) {
	var recs []Record
	for i := 0; i < 40; i++ {
		txn := TxnID(i + 1)
		file := "TRADES"
		if i%3 == 1 {
			file = "ORDERS"
		}
		recs = append(recs,
			Record{Type: RecBegin, Txn: txn},
			Record{Type: RecInsert, Txn: txn, File: file, Partition: uint16(i % 4), Key: uint64(i), Body: bytes.Repeat([]byte{byte(i)}, i)},
			Record{Type: RecUpdate, Txn: txn, File: "ORDERS", Key: uint64(i) << 32, Body: []byte("after")},
			Record{Type: RecCommit, Txn: txn},
		)
	}
	var buf []byte
	for i := range recs {
		buf = AppendRecord(buf, &recs[i])
	}
	return buf, recs
}

// The in-place scanner must yield, field by field, exactly the records
// DecodeRecord decodes as owned copies from the same offsets.
func TestScannerMatchesDecodeRecord(t *testing.T) {
	buf, recs := interleavedStream()
	s := NewScanner(buf)
	i := 0
	for s.Next() {
		got := s.Record()
		want, n, err := DecodeRecord(buf[s.LSN():])
		if err != nil {
			t.Fatalf("record %d: DecodeRecord: %v", i, err)
		}
		if int(s.LSN())+n != s.Offset() {
			t.Errorf("record %d: scanner advanced to %d, DecodeRecord consumed %d from %d", i, s.Offset(), n, s.LSN())
		}
		if got.Type != want.Type || got.Txn != want.Txn || got.File != want.File ||
			got.Partition != want.Partition || got.Key != want.Key || !bytes.Equal(got.Body, want.Body) {
			t.Errorf("record %d: scanner %+v, DecodeRecord %+v", i, *got, *want)
		}
		if got.File != recs[i].File {
			t.Errorf("record %d: File %q, encoded %q", i, got.File, recs[i].File)
		}
		if cap(got.Body) != len(got.Body) {
			t.Errorf("record %d: Body cap %d exceeds len %d; an append would overwrite the next frame", i, cap(got.Body), len(got.Body))
		}
		i++
	}
	if s.Err() != nil || i != len(recs) {
		t.Fatalf("scanned %d of %d records, err %v", i, len(recs), s.Err())
	}
}

// The scanner lends Body out of the scanned bytes; DecodeRecord returns
// a copy that later writes to its input cannot reach.
func TestBodyOwnership(t *testing.T) {
	buf := AppendRecord(nil, &Record{Type: RecInsert, Txn: 1, File: "F", Body: []byte("image")})
	rec, _, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(buf)
	if !s.Next() {
		t.Fatalf("scan: %v", s.Err())
	}
	lent := s.Record().Body
	for i := range buf {
		buf[i] ^= 0xFF
	}
	if string(rec.Body) != "image" {
		t.Errorf("DecodeRecord body changed with its input: %q", rec.Body)
	}
	if string(lent) == "image" {
		t.Error("scanner body does not alias the scanned bytes")
	}
}

// A scan over a single-file stream allocates the file name once and
// nothing per record.
func TestScannerAllocs(t *testing.T) {
	var buf []byte
	for i := 0; i < 1000; i++ {
		buf = AppendRecord(buf, &Record{Type: RecInsert, Txn: TxnID(i), File: "TRADES", Key: uint64(i), Body: []byte("row")})
	}
	n := 0
	allocs := testing.AllocsPerRun(10, func() {
		s := NewScanner(buf)
		for s.Next() {
			n++
		}
	})
	if allocs > 1 {
		t.Errorf("scan of 1000 records allocated %.0f objects, want at most 1", allocs)
	}
	if n != 11*1000 {
		t.Errorf("scanned %d records over 11 runs, want %d", n, 11*1000)
	}
}
