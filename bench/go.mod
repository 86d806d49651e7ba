module holistic/bench

go 1.24

require holistic v0.0.0

replace holistic => ../
