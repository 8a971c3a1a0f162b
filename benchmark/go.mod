module github.com/riveterdb/riveter/benchmark

go 1.22

require github.com/riveterdb/riveter v0.0.0

replace github.com/riveterdb/riveter => ../
