"""End-to-end application pipelines (Sections 8.3 and 8.4 of the paper).

Import from the submodules (``repro.pipelines.e2e``, ``.cap``,
``.linezero``, ``.live``, …): the package imports none of them, so
``python -m repro.pipelines.<name>`` runs a module that was not imported
before.
"""
