package flowlang

import (
	"strings"

	"psaflow/internal/core"
	"psaflow/internal/platform"
)

// CatalogRow is the row of docs/FLOWS.md's task catalog for the DSL task
// name, built from the registry: device class, engine task name (a device
// task's name starts with its device's), needs and gives.
func CatalogRow(name string) string {
	entry := taskRegistry[name]
	s, dev := &TaskStmt{Name: name}, "—"
	if entry.needsDevice() {
		s.Arg, dev = "dev", entry.Class.String()
	}
	b := binding{gpu: platform.GPUSpec{Name: "*device*"}, fpga: platform.FPGASpec{Name: "*device*"}}
	t := lowerTask(s, b).(core.TaskFunc)
	facts := func(f core.Fact) string {
		if f == 0 {
			return "—"
		}
		return f.String()
	}
	return "| " + strings.Join([]string{"`" + name + "`", dev, t.TaskName, facts(t.Need), facts(t.Give)}, " | ") + " |"
}
