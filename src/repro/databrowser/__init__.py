"""The DataBrowser (slides 9 and 12).

    "For end-users: DataBrowser — graphical tool for exploring and managing
    the LSDF data, based on ADAL-API, connects to the meta-data repository."
    "Allow tagging data and triggering execution via DataBrowser.  Data from
    finished workflows stored and tagged in DB — used for zebrafish
    microscopy data."

This is the headless core of that tool: directory-style navigation over
ADAL, joined views of objects + their metadata records, find-by-query, and
the production feature — **tag-triggered workflow execution**: applying a
tag that matches a registered :class:`TriggerRule` launches the rule's
workflow on the dataset and records provenance back into the repository.

Public surface
--------------
:class:`DataBrowser`
    Navigation (cd/ls/stat), joined listings, find, tag.
:class:`TriggerEngine`, :class:`TriggerRule`, :class:`TriggerEvent`
    The tag -> workflow automation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.databrowser.browser": ("DataBrowser", "Listing"),
    "repro.databrowser.triggers": (
        "TriggerEngine", "TriggerEvent", "TriggerFailure", "TriggerRule"),
    "repro.databrowser.webgui": (
        "export_site", "render_dataset", "render_listing", "render_search"),
})

__all__ = [
    "DataBrowser",
    "Listing",
    "TriggerEngine",
    "TriggerEvent",
    "TriggerFailure",
    "TriggerRule",
    "export_site",
    "render_dataset",
    "render_listing",
    "render_search",
]
