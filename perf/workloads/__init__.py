"""The four benchmark workloads; each module exposes ``run(ctx) -> Outcome``."""

WORKLOADS = ("retro_fig3", "live_cohort", "tenant_churn", "push_gateway")
