package minic

import (
	"fmt"
	"reflect"
)

// ParseUnchecked is Parse without Check: the tests type, and run, programs
// Check rejects.
var ParseUnchecked = parse

// ParseDry is parse with every slab count zero: each node and list comes
// from a slab that has run dry.
func ParseDry(src string) (*Program, error) {
	p := &Parser{}
	if err := p.count(src); err != nil {
		return nil, err
	}
	p.slabs = slabs{}
	return p.build(src)
}

// CountMisses names each slab whose count for src differs from what the
// parse of src takes from it, as "kind: counted n, took m".
func CountMisses(src string) ([]string, error) {
	var counted slabs
	if err := counted.count(src); err != nil {
		return nil, err
	}
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	took := cloner{copies: 1}
	took.count(prog)
	took.funcSlots.n = len(prog.Funcs)
	var misses []string
	c, tk := reflect.ValueOf(counted), reflect.ValueOf(took.slabs)
	for i := range c.NumField() {
		if n, m := c.Field(i).FieldByName("n").Int(), tk.Field(i).FieldByName("n").Int(); n != m {
			misses = append(misses, fmt.Sprintf("%s: counted %d, took %d", c.Type().Field(i).Name, n, m))
		}
	}
	return misses, nil
}
