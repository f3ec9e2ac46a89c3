"""The CLI runs pinned by tests/golden/, kept free of pytest so that
tests/golden_oneshot.py can run them under an interpreter without it."""

# file name -> (argv, exit code)
CASES = {
    "verify.txt": (["verify"], 0),
    "verify.json": (["verify", "--format", "json"], 0),
    "verify.csv": (["verify", "--format", "csv"], 0),
    "verify-max-terms-25.json": (
        ["verify", "--max-terms", "25", "--format", "json"], 1),
    "heegner.txt": (["heegner"], 0),
    "heegner.json": (["heegner", "--format", "json"], 0),
    "constants-lambda-5.json": (
        ["constants", "--lambda", "-5", "--format", "json"], 0),
    "eval-gelfond-unit.txt": (
        ["eval", "--upper", "i,-i", "--lower", "1/2", "--z", "1",
         "--tol", "1e-6"], 0),
    "eval-complex-unit.json": (
        ["eval", "--upper", "0.3+2i,0.1", "--lower", "3", "--z", "1",
         "--tol", "1e-6", "--format", "json"], 0),
    "constants.txt": (["constants"], 0),
    "constants-lambda-2.5.txt": (["constants", "--lambda", "2.5"], 0),
    "verify-cor3.txt": (["verify", "--id", "cor3-*"], 0),
    "heegner-163.txt": (["heegner", "--n", "163"], 0),
    "eval-divergent-unit.json": (
        ["eval", "--upper", "1,1", "--lower", "1", "--z", "1",
         "--format", "json"], 2),
    "eval-max-terms-20.txt": (
        ["eval", "--upper", "1,1", "--lower", "2", "--z", "0.9",
         "--max-terms", "20"], 1),
    "eval-log-0.999.json": (
        ["eval", "--upper", "1,1", "--lower", "2", "--z", "0.999",
         "--tol", "1e-10", "--format", "json"], 0),
    "eval-cosh-pi.txt": (
        ["eval", "--lower", "1/2", "--z", "2.4674011002723395"], 0),
    "eval-complex-half.json": (
        ["eval", "--upper", "1/2+i,1/2-i", "--lower", "3/2", "--z", "1/2",
         "--format", "json"], 0),
    "eval-complex-z.json": (
        ["eval", "--upper=1+2i", "--lower", "1/2-i", "--z", "3-4i",
         "--format", "json"], 0),
    "eval-truncated.txt": (
        ["eval", "--upper=-3,1/2", "--lower", "3/2", "--z", "0.7"], 0),
    "eval-overflow.txt": (["eval", "--z", "800"], 2),
}
