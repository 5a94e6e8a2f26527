"""Repository-wide pytest options (options must be registered at the root)."""


def pytest_addoption(parser):
    parser.addoption(
        "--record",
        action="store_true",
        help="persist the benchmark result tables as JSON under benchmarks/results/; "
        "without it the benchmarks only print them",
    )
