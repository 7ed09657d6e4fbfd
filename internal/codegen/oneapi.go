package codegen

import (
	"strconv"
	"strings"

	"psaflow/internal/minic"
)

// OneAPI renders the CPU+FPGA design: a SYCL single_task pipeline kernel
// with the outer loop carrying the unroll pragma found by the
// unroll-until-overmap DSE, plus host management code. Buffer/accessor
// style is used for devices without USM (Arria 10); zero-copy malloc_host
// pointers for USM devices (Stratix 10) — which is why the paper's S10
// designs add more lines (+81% avg) than A10 designs (+57% avg).
func OneAPI(prog *minic.Program, refLOC int, opts Options) (*Design, error) {
	fn, loop, bound, err := kernelLoop(prog, opts.Kernel)
	if err != nil {
		return nil, err
	}
	unroll := opts.UnrollFactor
	if unroll <= 0 {
		unroll = 1
	}

	src := renders.Get().(*source)
	w := func(parts ...string) {
		for _, p := range parts {
			src.buf = append(src.buf, p...)
		}
	}
	var ptrArr [8]*minic.Param
	ptrs := pointerParams(ptrArr[:0], fn)
	sizeExpr := sizeExprFor(bound)

	w("// Auto-generated oneAPI CPU+FPGA design\n")
	w("// target: ", opts.Device, ", unroll: ", strconv.Itoa(unroll))
	if opts.ZeroCopy {
		w(", zero-copy USM host allocations")
	}
	w("\n")
	w("#include <sycl/sycl.hpp>\n")
	w("#include <sycl/ext/intel/fpga_extensions.hpp>\n")
	w("#include <cstring>\n")
	w("#include <iostream>\n\n")
	w("class ")
	src.kernelID(fn.Name)
	w(";\n\n")
	w("void ", fn.Name, "(")
	src.params(fn.Params)
	w(") {\n")
	w("#if defined(FPGA_EMULATOR)\n")
	w("    sycl::ext::intel::fpga_emulator_selector selector;\n")
	w("#else\n")
	w("    sycl::ext::intel::fpga_selector selector;\n")
	w("#endif\n")
	w("    auto exception_handler = [](sycl::exception_list elist) {\n")
	w("        for (std::exception_ptr const &e : elist) {\n")
	w("            try {\n")
	w("                std::rethrow_exception(e);\n")
	w("            } catch (sycl::exception const &ex) {\n")
	w("                std::cerr << \"SYCL exception: \" << ex.what() << std::endl;\n")
	w("                std::terminate();\n")
	w("            }\n")
	w("        }\n")
	w("    };\n")
	w("    sycl::property_list props{sycl::property::queue::enable_profiling()};\n")
	w("    sycl::queue q(selector, exception_handler, props);\n")
	w("    sycl::device dev = q.get_device();\n")
	w("    std::cerr << \"Running on \" << dev.get_info<sycl::info::device::name>() << std::endl;\n")

	if opts.ZeroCopy {
		w("    // Zero-copy: the kernel streams host memory directly through\n")
		w("    // USM; no buffer copies are staged on the device DDR.\n")
		w("    if (!dev.has(sycl::aspect::usm_host_allocations)) {\n")
		w("        std::cerr << \"Device lacks USM host allocations\" << std::endl;\n")
		w("        std::terminate();\n")
		w("    }\n")
		for _, p := range ptrs {
			elem := p.Type.Kind.String()
			w("    ", elem, " *u_", p.Name, " = sycl::malloc_host<", elem, ">(", sizeExpr, ", q);\n")
			w("    memcpy(u_", p.Name, ", ", p.Name, ", sizeof(", elem, ") * (", sizeExpr, "));\n")
		}
		w("    sycl::event e = q.submit([&](sycl::handler &h) {\n")
		w("        h.single_task<")
		src.kernelID(fn.Name)
		w(">([=]() [[intel::kernel_args_restrict]] {\n")
		src.pipelineLoop(loop, unroll, 3)
		w("        });\n")
		w("    });\n")
		w("    q.wait();\n")
		w("    double start_ns = e.get_profiling_info<sycl::info::event_profiling::command_start>();\n")
		w("    double end_ns = e.get_profiling_info<sycl::info::event_profiling::command_end>();\n")
		w("    std::cerr << \"Kernel time: \" << (end_ns - start_ns) * 1e-6 << \" ms\" << std::endl;\n")
		for _, p := range ptrs {
			if !p.Type.Const {
				w("    memcpy(", p.Name, ", u_", p.Name, ", sizeof(", p.Type.Kind.String(), ") * (", sizeExpr, "));\n")
			}
		}
		for _, p := range ptrs {
			w("    sycl::free(u_", p.Name, ", q);\n")
		}
	} else {
		w("    {\n")
		for _, p := range ptrs {
			w("        sycl::buffer<", p.Type.Kind.String(), ", 1> ", p.Name, "_buf(", p.Name, ", sycl::range<1>(", sizeExpr, "));\n")
		}
		w("        sycl::event e = q.submit([&](sycl::handler &h) {\n")
		for _, p := range ptrs {
			mode := "read_write"
			if p.Type.Const {
				mode = "read"
			}
			w("            auto ", p.Name, "_acc = ", p.Name, "_buf.get_access<sycl::access::mode::", mode, ">(h);\n")
		}
		w("            h.single_task<")
		src.kernelID(fn.Name)
		w(">([=]() [[intel::kernel_args_restrict]] {\n")
		src.pipelineLoop(loop, unroll, 4)
		w("            });\n")
		w("        });\n")
		w("        q.wait();\n")
		w("        double start_ns = e.get_profiling_info<sycl::info::event_profiling::command_start>();\n")
		w("        double end_ns = e.get_profiling_info<sycl::info::event_profiling::command_end>();\n")
		w("        std::cerr << \"Kernel time: \" << (end_ns - start_ns) * 1e-6 << \" ms\" << std::endl;\n")
		w("    } // buffer destructors write results back to the host\n")
	}
	w("}\n\n")

	src.otherFuncs(prog, fn.Name)
	return finish("oneapi", opts.Device, src, refLOC), nil
}

// kernelID writes the kernel's SYCL class name: the kernel's name, its
// first byte upper-cased, then "KernelID".
func (w *source) kernelID(name string) {
	if c := name[0]; 'a' <= c && c <= 'z' {
		w.buf = append(w.buf, c-'a'+'A')
	} else {
		w.buf = append(w.buf, strings.ToUpper(name[:1])...)
	}
	w.buf = append(w.buf, name[1:]...)
	w.buf = append(w.buf, "KernelID"...)
}

// pipelineLoop writes the kernel's outer loop, carrying only the unroll
// pragma, at the given indent level. The loop is copied on the stack to
// swap its pragmas; the printer keeps nothing of it.
func (w *source) pipelineLoop(loop *minic.ForStmt, unroll, indent int) {
	pipe := *loop
	var pragma [1]string
	pipe.Pragmas = nil
	if unroll > 1 {
		pragma[0] = "unroll " + strconv.Itoa(unroll)
		pipe.Pragmas = pragma[:]
	}
	w.buf = minic.AppendStmts(w.buf, []minic.Stmt{&pipe}, indent)
}
