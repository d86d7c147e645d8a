package hpcc

import (
	"dvc/internal/guest"
	"dvc/internal/imgcodec"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&Stream{})
}

// Stream is the HPCC STREAM memory-bandwidth kernel (Copy, Scale, Add,
// Triad over large vectors), a single-node guest program. The vectors are
// real (small) so the arithmetic is verified; the time charged per pass
// is modelled from the memory traffic at the configured bandwidth.
type Stream struct {
	// Elements is the working vector length; ModelBytesPerSec is the
	// node's sustainable memory bandwidth.
	Elements         int
	Passes           int
	ModelBytesPerSec float64

	A, B, C []float64
	Pass    int
	Phase   int

	StartWall, EndWall sim.Time
	Finished           bool
	Verified           bool
	// AvgGBs is the reported sustained bandwidth in GB/s across all
	// four kernels (80 bytes/element/pass).
	AvgGBs float64
}

// NewStream constructs the kernel; 2007 nodes sustained ~4-6 GB/s.
func NewStream(elements, passes int, bytesPerSec float64) *Stream {
	return &Stream{Elements: elements, Passes: passes, ModelBytesPerSec: bytesPerSec}
}

// Stream phases: each models its real byte traffic per element.
const (
	streamCopy  = iota // c = a          (16 B/elem)
	streamScale        // b = k*c        (16 B/elem)
	streamAdd          // c = a+b        (24 B/elem)
	streamTriad        // a = b+k*c      (24 B/elem)
)

func (s *Stream) phaseBytes() float64 {
	switch s.Phase {
	case streamAdd, streamTriad:
		return 24 * float64(s.Elements)
	default:
		return 16 * float64(s.Elements)
	}
}

const streamScalar = 3.0

// Next implements guest.Program.
func (s *Stream) Next(api *guest.API, res guest.Result) guest.Op {
	if s.A == nil {
		s.StartWall = api.WallClock()
		s.A = make([]float64, s.Elements)
		s.B = make([]float64, s.Elements)
		s.C = make([]float64, s.Elements)
		for i := range s.A {
			s.A[i] = 1.0
			s.B[i] = 2.0
		}
	}
	if s.Pass >= s.Passes {
		if !s.Finished {
			s.Finished = true
			s.EndWall = api.WallClock()
			s.verify()
			elapsed := (s.EndWall - s.StartWall).Seconds()
			if elapsed > 0 {
				s.AvgGBs = 80 * float64(s.Elements) * float64(s.Passes) / elapsed / 1e9
			}
			api.Log("stream: %d elems x %d passes, %.2f GB/s, verified=%v", s.Elements, s.Passes, s.AvgGBs, s.Verified)
		}
		api.Exit(0)
		return nil
	}
	// Do the real arithmetic for this phase, then charge its time.
	switch s.Phase {
	case streamCopy:
		copy(s.C, s.A)
	case streamScale:
		for i := range s.B {
			s.B[i] = streamScalar * s.C[i]
		}
	case streamAdd:
		for i := range s.C {
			s.C[i] = s.A[i] + s.B[i]
		}
	case streamTriad:
		for i := range s.A {
			s.A[i] = s.B[i] + streamScalar*s.C[i]
		}
	}
	d := sim.Time(s.phaseBytes() / s.ModelBytesPerSec * float64(sim.Second))
	s.Phase++
	if s.Phase > streamTriad {
		s.Phase = streamCopy
		s.Pass++
	}
	return api.Compute(d)
}

// verify checks the closed form after k full passes: the kernels form a
// linear recurrence on (a, b, c) starting from (1, 2, _).
func (s *Stream) verify() {
	a, b, c := 1.0, 2.0, 0.0
	for p := 0; p < s.Passes; p++ {
		c = a
		b = streamScalar * c
		c = a + b
		a = b + streamScalar*c
	}
	s.Verified = true
	for i := 0; i < s.Elements; i += 1 + s.Elements/64 {
		if s.A[i] != a || s.B[i] != b || s.C[i] != c {
			s.Verified = false
			return
		}
	}
}

// WallTime returns the reported wall duration.
func (s *Stream) WallTime() sim.Time { return s.EndWall - s.StartWall }
