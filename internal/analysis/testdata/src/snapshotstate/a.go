// Fixture for the snapshotstate analyzer: reachability closure from
// //dvc:checkpoint-root types and imgcodec.Register payloads, across
// nested structs, unexported embedding, map values, slices and pointers.
// Diagnostics land on the root declaration (or the imgcodec.Register
// call), naming the reached field.
package snapshotstate

import (
	"encoding/gob"

	"dvc/internal/imgcodec"
	"dvc/internal/payload"
)

// Inner is reached through Root.Nested; its unexported field is two
// levels away from the root.
type Inner struct {
	ID    int
	state []byte
}

// Leaf is reached only as a map value.
type Leaf struct {
	Val  float64
	meta string
}

type base struct{ X int }

// Deep exercises unexported embedding and a map-of-slice-of-struct
// chain.
type Deep struct {
	base
	Weights map[string][]Matrix
}

type Matrix struct{ Rows []Row }

type Row struct {
	Vals []float64
	tag  byte
}

// Blob owns its gob wire format, which the image codec does not use:
// the walk goes on into it.
type Blob struct{ raw []byte }

func (b Blob) GobEncode() ([]byte, error) { return b.raw, nil }
func (b *Blob) GobDecode(p []byte) error  { b.raw = append(b.raw[:0], p...); return nil }

// Root is a checkpoint root; every problem in its closure is reported
// here, in field-walk order.
//
//dvc:checkpoint-root
type Root struct { // want `Blob\.raw is unexported` `Inner\.state is unexported` `Leaf\.meta is unexported` `Deep\.base is an unexported embedded field` `Row\.tag is unexported` `Root\.Signal contains a chan` `Root\.hidden is unexported`
	Name    string
	Data    Blob
	Rope    payload.Bytes // encoded natively; the walk stops here
	Nested  Inner
	Table   map[string]Leaf
	Items   []*Deep
	Payload any
	Signal  chan int
	hidden  int
}

// CleanRoot's closure is entirely encodable: no diagnostics.
//
//dvc:checkpoint-root
type CleanRoot struct {
	ID   int
	Tags []string
	Meta map[string]float64
	Self *CleanRoot
}

// RegisteredPayload becomes a root through imgcodec.Register, not a
// directive; the problem is reported at the Register call.
type RegisteredPayload struct {
	Kind  string
	cache []byte
}

// GobOnly is registered with gob alone, so it is not image state.
type GobOnly struct{ cache []byte }

func init() {
	imgcodec.Register(RegisteredPayload{}) // want `RegisteredPayload\.cache is unexported`
	gob.Register(GobOnly{})
}
