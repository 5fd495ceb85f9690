// sfsbench is a module of its own so that the benchmark builds from its own
// build file and the root module's `go build ./...` / `go test ./...` do not
// depend on it. It imports the parent module's packages (internal ones
// included: the import path keeps the sfsched/ prefix) through the replace
// directive below.
module sfsched/cmd/sfsbench

go 1.23

require sfsched v0.0.0

replace sfsched => ../..
