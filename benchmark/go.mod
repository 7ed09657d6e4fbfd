module psaflow/benchmark

go 1.22

require psaflow v0.0.0

replace psaflow => ../
