package wire

import (
	"reflect"
	"testing"
)

type inner struct {
	ID  uint32
	Tag string
}

func (v *inner) fields(c *Coder) {
	Uv(c, &v.ID)
	c.Str(&v.Tag)
}

// sample has one field per walk the Coder offers.
type sample struct {
	N     int
	Delta int32
	Kind  uint8
	Seq   uint64
	Flag  byte
	On    bool
	X     float64
	Name  string
	Blob  []byte
	Raw   []byte
	IDs   []uint64
	Parts [][]byte
	In    []inner
	Ptrs  []*inner
}

func (s *sample) fields(c *Coder) {
	Uv(c, &s.N)
	Sv(c, &s.Delta)
	U8(c, &s.Kind)
	c.U64(&s.Seq)
	c.Byte(&s.Flag)
	c.Bool(&s.On)
	c.F64(&s.X)
	c.Str(&s.Name)
	BytesOf(c, &s.Blob)
	c.Window(&s.Raw)
	List(c, &s.IDs, Uv[uint64])
	List(c, &s.Parts, BytesOf[[]byte])
	Each(c, &s.In, (*inner).fields)
	EachPtr(c, &s.Ptrs, (*inner).fields)
}

func decodeSample(b []byte, alias bool) (sample, error) {
	c := Coder{Decoding: true, Alias: alias, R: Reader{Buf: b}}
	var s sample
	s.fields(&c)
	return s, c.R.Err
}

func fullSample() sample {
	return sample{
		N: 300, Delta: -7, Kind: 3, Seq: 1 << 40, Flag: 0xA5, On: true, X: 0.125,
		Name: "n", Blob: []byte{1, 2}, Raw: []byte{3, 4, 5},
		IDs: []uint64{1, 1 << 33}, Parts: [][]byte{{9}, nil},
		In: []inner{{ID: 1, Tag: "a"}}, Ptrs: []*inner{{ID: 2, Tag: "b"}, {ID: 3}},
	}
}

// One walk, run in both directions, is the identity; and the bytes it
// writes are what the Writer's own methods would have written.
func TestCoderRoundTrip(t *testing.T) {
	want := fullSample()
	var enc Coder
	want.fields(&enc)

	var w Writer
	w.Uvarint(300)
	w.Varint(-7)
	w.Byte(3)
	w.Uvarint(1 << 40)
	w.Byte(0xA5)
	w.Bool(true)
	w.Float64(0.125)
	w.String("n")
	w.Bytes([]byte{1, 2})
	w.Bytes([]byte{3, 4, 5})
	if !reflect.DeepEqual(enc.W.Buf[:w.Len()], w.Buf) {
		t.Fatalf("scalar prefix encodes as %x, the Writer gives %x", enc.W.Buf[:w.Len()], w.Buf)
	}

	got, err := decodeSample(enc.W.Buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// Every empty sequence, byte string included, decodes as nil.
func TestCoderEmptyDecodesNil(t *testing.T) {
	empty := sample{Blob: []byte{}, Raw: []byte{}, IDs: []uint64{}, Parts: [][]byte{}, In: []inner{}, Ptrs: []*inner{}}
	var enc Coder
	empty.fields(&enc)
	got, err := decodeSample(enc.W.Buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sample{}) {
		t.Fatalf("empty sequences decoded as %+v, want the zero value", got)
	}
}

// Window aliases the frame only when asked to; BytesOf never does.
func TestCoderWindowAliasesOnlyWithAlias(t *testing.T) {
	s := fullSample()
	var enc Coder
	s.fields(&enc)
	frame := enc.W.Buf
	inFrame := func(b []byte) bool {
		for i := range frame {
			if &frame[i] == &b[0] {
				return true
			}
		}
		return false
	}
	for _, alias := range []bool{false, true} {
		got, err := decodeSample(frame, alias)
		if err != nil {
			t.Fatal(err)
		}
		if inFrame(got.Raw) != alias {
			t.Errorf("Alias=%v: Window field aliases the frame = %v", alias, !alias)
		}
		if inFrame(got.Blob) || inFrame(got.Parts[0]) {
			t.Errorf("Alias=%v: a BytesOf field aliases the frame", alias)
		}
	}
}

// A hostile length prefix fails in Count and leaves the slice nil, for each
// of the three sequence walks, and a truncated frame fails at every cut.
func TestCoderHostileAndTruncated(t *testing.T) {
	var huge Writer
	huge.Uvarint(1 << 50)
	for name, walk := range map[string]func(*Coder) bool{
		"List":    func(c *Coder) bool { v := []uint64{1}; List(c, &v, Uv[uint64]); return v == nil },
		"Each":    func(c *Coder) bool { v := []inner{{}}; Each(c, &v, (*inner).fields); return v == nil },
		"EachPtr": func(c *Coder) bool { v := []*inner{{}}; EachPtr(c, &v, (*inner).fields); return v == nil },
	} {
		c := Coder{Decoding: true, R: Reader{Buf: huge.Buf}}
		if isNil := walk(&c); c.R.Err == nil || !isNil {
			t.Errorf("%s over a 2^50 prefix: err %v, slice left nil = %v", name, c.R.Err, isNil)
		}
	}

	s := fullSample()
	var enc Coder
	s.fields(&enc)
	for cut := 0; cut < len(enc.W.Buf); cut++ {
		if _, err := decodeSample(enc.W.Buf[:cut], true); err == nil {
			t.Fatalf("no error with %d of %d bytes", cut, len(enc.W.Buf))
		}
	}
}
