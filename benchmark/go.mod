module hyrise/benchmark

go 1.24

require hyrise v0.0.0

replace hyrise => ../
