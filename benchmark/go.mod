module allscale/benchmark

go 1.22

require allscale v0.0.0

replace allscale => ../
