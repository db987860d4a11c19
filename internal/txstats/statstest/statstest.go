// Package statstest checks statistics folds for completeness: fill
// every counter of a stats struct with a distinct nonzero value, fold,
// and compare field by field, so a counter left out of an Add or a
// Minus fails a test instead of silently reading 0.
package statstest

import (
	"fmt"
	"reflect"
	"testing"
)

// Fill sets every exported uint64 reachable from the struct p points to
// — through embedded and nested structs and arrays — to a distinct
// nonzero value.
func Fill(p any) {
	for i, c := range counters(p) {
		c.v.SetUint(uint64(i + 1))
	}
}

// Expect fails t for every exported uint64 of *got that does not equal
// want applied to the same field of *orig (both of one struct type).
func Expect(t testing.TB, got, orig any, want func(uint64) uint64) {
	t.Helper()
	o := counters(orig)
	for i, c := range counters(got) {
		if w := want(o[i].v.Uint()); c.v.Uint() != w {
			t.Errorf("%s = %d, want %d", c.path, c.v.Uint(), w)
		}
	}
}

type counter struct {
	path string
	v    reflect.Value
}

// counters lists the exported uint64s reachable from *p in field order.
func counters(p any) []counter {
	var out []counter
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Uint64:
			out = append(out, counter{path, v})
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if sf := v.Type().Field(i); sf.IsExported() {
					walk(v.Field(i), path+"."+sf.Name)
				}
			}
		}
	}
	walk(reflect.ValueOf(p).Elem(), reflect.TypeOf(p).Elem().Name())
	return out
}
