"""Documentation conformance tests: links, paper map, TOC coverage, CLI invocations."""
