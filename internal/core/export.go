package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"psaflow/internal/minic"
)

// Export writes the design to a directory, mirroring the paper's Fig. 2
// final step (design.export(mod_src)): the generated target source, the
// transformed MiniC program, the provenance trace, and a JSON summary of
// the report and tuned parameters. Returns the directory created.
func (d *Design) Export(baseDir string) (string, error) {
	dir := filepath.Join(baseDir, sanitize(d.Label()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("export %s: %w", d.Label(), err)
	}
	if d.Artifact != nil {
		name := map[string]string{
			"openmp": "design_omp.c",
			"hip":    "design_hip.cpp",
			"oneapi": "design_oneapi.cpp",
		}[d.Artifact.Target]
		if name == "" {
			name = "design.txt"
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(d.Artifact.Source), 0o644); err != nil {
			return "", err
		}
	}
	if d.Prog != nil {
		if err := os.WriteFile(filepath.Join(dir, "transformed.minic"), []byte(minic.Print(d.Prog)), 0o644); err != nil {
			return "", err
		}
	}
	var trace strings.Builder
	for _, ev := range d.Trace {
		trace.WriteString(ev.String())
		trace.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.log"), []byte(trace.String()), 0o644); err != nil {
		return "", err
	}
	summary := map[string]any{
		"name":       d.Name,
		"target":     d.TargetName(),
		"device":     d.Device,
		"kernel":     d.Kernel,
		"infeasible": d.Infeasible,
		"tuned": map[string]any{
			"num_threads":   d.NumThreads,
			"blocksize":     d.Blocksize,
			"unroll_factor": d.UnrollFactor,
			"pinned":        d.Pinned,
			"zero_copy":     d.ZeroCopy,
			"shared_mem":    d.SharedMem,
			"fast_math":     d.Specialised,
		},
		"estimate": map[string]any{
			"kernel_s":   d.Est.KernelTime,
			"transfer_s": d.Est.TransferTime,
			"overhead_s": d.Est.Overhead,
			"total_s":    d.Est.Total,
			"note":       d.Est.Note,
		},
		"report": d.Report,
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "design.json"), data, 0o644); err != nil {
		return "", err
	}
	return dir, nil
}

// sanitize turns a design label into a filesystem-safe directory name.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-' || r == '_' || r == '.':
			out = append(out, r)
		case r == '/' || r == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}
