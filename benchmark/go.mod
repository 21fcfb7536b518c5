module dcer/benchmark

go 1.22

require dcer v0.0.0

replace dcer => ../
