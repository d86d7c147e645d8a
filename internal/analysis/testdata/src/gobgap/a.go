// Fixture proving snapshotstate's closure is a strict superset of
// gobsafe's call-site view. The only codec call site here encodes a
// value of static type any, so gobsafe has nothing to walk and reports
// nothing; snapshotstate starts from the declared root and still finds
// the nested unexported field. The comparison test
// (TestSnapshotStateCatchesWhatGobsafeMisses) runs both analyzers over
// this package and asserts gobsafe=0, snapshotstate>0 — so this file
// deliberately carries no want comments.
package gobgap

import "dvc/internal/imgcodec"

// Image is checkpoint state: Save is always called with an *Image.
//
//dvc:checkpoint-root
type Image struct {
	Header Header
}

// Header hides a field the image codec cannot carry.
type Header struct {
	Version int
	dirty   bool
}

// Save erases the payload's static type before the codec ever sees it.
func Save(v any) ([]byte, error) {
	return imgcodec.Append(nil, v)
}
