package wire

// Coder walks a value's fields in wire order, in one of two directions:
// encoding appends each field to W, decoding fills each field from R. A wire
// type therefore describes its format once, as the sequence of calls its
// walk makes, and its encoder and decoder cannot disagree.
//
// Every call takes a pointer to the field. Decoding inherits Reader's
// contract: the first failure latches in R.Err, later reads yield zero
// values, and sequence lengths go through Reader.Count, so hostile input is
// rejected before it sizes an allocation.
type Coder struct {
	W Writer
	R Reader
	// Decoding selects the direction of the walk.
	Decoding bool
	// Alias lets Window leave its field pointing into R.Buf.
	Alias bool
}

// Uv walks an unsigned-varint field of any integer type (the typed IDs,
// counts held as int).
func Uv[T ~uint32 | ~uint64 | ~int](c *Coder, v *T) {
	if c.Decoding {
		*v = T(c.R.Uvarint())
	} else {
		c.W.Uvarint(uint64(*v))
	}
}

// Sv walks a signed-varint field.
func Sv[T ~int32 | ~int64](c *Coder, v *T) {
	if c.Decoding {
		*v = T(c.R.Varint())
	} else {
		c.W.Varint(int64(*v))
	}
}

// U8 walks a one-byte field of an enum type.
func U8[T ~uint8](c *Coder, v *T) {
	if c.Decoding {
		*v = T(c.R.Byte())
	} else {
		c.W.Byte(byte(*v))
	}
}

// U64 walks an unsigned-varint uint64 field.
func (c *Coder) U64(v *uint64) { Uv(c, v) }

// Byte walks a one-byte field.
func (c *Coder) Byte(v *byte) { U8(c, v) }

// Bool walks a bool field (one byte).
func (c *Coder) Bool(v *bool) {
	if c.Decoding {
		*v = c.R.Bool()
	} else {
		c.W.Bool(*v)
	}
}

// F64 walks a float64 field (eight bytes, IEEE-754 bits).
func (c *Coder) F64(v *float64) {
	if c.Decoding {
		*v = c.R.Float64()
	} else {
		c.W.Float64(*v)
	}
}

// Str walks a length-prefixed string field.
func (c *Coder) Str(v *string) {
	if c.Decoding {
		*v = c.R.String()
	} else {
		c.W.String(*v)
	}
}

// BytesOf walks a length-prefixed byte-string field. Decoding copies, so
// the field never aliases the frame; an empty string decodes as nil.
func BytesOf[T ~[]byte](c *Coder, v *T) {
	if c.Decoding {
		*v = T(c.R.BytesCopy())
	} else {
		c.W.Bytes(*v)
	}
}

// Window is BytesOf for the one field allowed to alias the frame: when
// decoding with Alias set, the field is left as a window into R.Buf.
func (c *Coder) Window(v *[]byte) {
	if c.Decoding && c.Alias {
		*v = c.R.Bytes()
	} else {
		BytesOf(c, v)
	}
}

// size walks a sequence's length prefix. Decoding makes the slice, sized
// from a Count-validated length; an empty sequence decodes as nil.
func size[T any](c *Coder, v *[]T) {
	if !c.Decoding {
		c.W.Uvarint(uint64(len(*v)))
		return
	}
	*v = nil
	if n := c.R.Count(); n > 0 {
		*v = make([]T, n)
	}
}

// List walks a length-prefixed sequence of scalars, elem being one of the
// walks above instantiated at the element type (Uv[ids.CommandID]).
// Decoding stops at the first failed element.
func List[T any](c *Coder, v *[]T, elem func(*Coder, *T)) {
	size(c, v)
	for i := range *v {
		if c.R.Err != nil {
			return
		}
		elem(c, &(*v)[i])
	}
}

// Each is List for a sequence of structs, walk being the element type's
// field walk as a method expression ((*T).fields).
func Each[T any](c *Coder, v *[]T, walk func(*T, *Coder)) {
	size(c, v)
	for i := range *v {
		if c.R.Err != nil {
			return
		}
		walk(&(*v)[i], c)
	}
}

// EachPtr is Each for a sequence of struct pointers; decoding allocates
// each element.
func EachPtr[T any](c *Coder, v *[]*T, walk func(*T, *Coder)) {
	size(c, v)
	for i := range *v {
		if c.R.Err != nil {
			return
		}
		if c.Decoding {
			(*v)[i] = new(T)
		}
		walk((*v)[i], c)
	}
}
