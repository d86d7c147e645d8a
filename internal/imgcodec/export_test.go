package imgcodec

import "reflect"

// Registered returns every registered payload type by name, for the
// registry tests in package imgcodec_test.
func Registered() map[string]reflect.Type {
	out := make(map[string]reflect.Type)
	if r := reg.Load(); r != nil {
		for name, pt := range r.byName {
			out[name] = pt.typ
		}
	}
	return out
}
