package dataitem

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// Registry maps item type names to Type descriptors, so every runtime
// process can materialize fragments for data items created by other
// processes. Applications register their item types on every process
// before the computation starts (the role the AllScale compiler's
// generated registration code plays, Section 3.3), by name and code.
type Registry struct {
	mu    sync.RWMutex
	types map[uint16]Type // by TypeCode of the name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[uint16]Type)}
}

// TypeCode is the 16-bit code of a type name: FNV-1a, folded.
func TypeCode(name string) uint16 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return uint16(h.Sum32()>>16 ^ h.Sum32())
}

// Register adds t; a name registered already, or one whose code another
// name has, is an error.
func (r *Registry) Register(t Type) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if o, dup := r.types[TypeCode(t.Name())]; dup {
		return fmt.Errorf("dataitem: type %q collides with the registered %q", t.Name(), o.Name())
	}
	r.types[TypeCode(t.Name())] = t
	return nil
}

// MustRegister is Register, panicking on error.
func (r *Registry) MustRegister(t Type) {
	if err := r.Register(t); err != nil {
		panic(err)
	}
}

// Lookup returns the type registered under name.
func (r *Registry) Lookup(name string) (Type, error) {
	if t, err := r.ByCode(TypeCode(name)); err == nil && t.Name() == name {
		return t, nil
	}
	return nil, fmt.Errorf("dataitem: type %q not registered", name)
}

// ByCode returns the type registered under code.
func (r *Registry) ByCode(code uint16) (Type, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.types[code]
	if !ok {
		return nil, fmt.Errorf("dataitem: no type of code %#04x registered", code)
	}
	return t, nil
}
