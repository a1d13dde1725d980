//! WSDL-style service description. The original MCS generated its Java
//! client stubs from a WSDL document; we emit a compact equivalent listing
//! every operation (enough for discovery and for humans, not for stub
//! generation — our client is derived from the same op table as the
//! server, [`crate::ops`]).

use soapstack::server::SoapDispatcher;
use soapstack::soap::MCS_NS;
use soapstack::xml::Element;

/// Produce the service-description XML for a dispatcher's methods.
pub fn describe(d: &SoapDispatcher) -> String {
    let mut port = Element::new("portType").attr("name", "MetadataCatalogService");
    for name in d.method_names() {
        port = port.child(
            Element::new("operation")
                .attr("name", name)
                .child(Element::new("input").attr("message", format!("m:{name}")))
                .child(Element::new("output").attr("message", format!("m:{name}Response"))),
        );
    }
    let defs = Element::new("definitions")
        .attr("targetNamespace", MCS_NS)
        .attr("xmlns:m", MCS_NS)
        .child(
            Element::new("documentation").text(
                "Metadata Catalog Service (MCS) — reproduction of Singh et al., SC'03. \
                 Stores and queries descriptive (logical) metadata for data-intensive \
                 applications. Write operations accept an mcs:durability attribute \
                 (always|group|async) on the method element and echo an mcs:epoch \
                 attribute on the response; waitForEpoch/syncNow turn asynchronous \
                 acknowledgements into durable ones.",
            ),
        )
        .child(port);
    format!("<?xml version=\"1.0\" encoding=\"UTF-8\"?>{}", defs.to_xml())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describes_registered_methods() {
        let mut d = SoapDispatcher::new();
        d.register("beta", |_| Ok(Element::new("r")));
        d.register("alpha", |_| Ok(Element::new("r")));
        let wsdl = describe(&d);
        let doc = soapstack::xml::parse(wsdl.trim_start_matches("<?xml version=\"1.0\" encoding=\"UTF-8\"?>")).unwrap();
        let port = doc.expect("portType").unwrap();
        let names: Vec<&str> =
            port.find_all("operation").filter_map(|o| o.attr_value("name")).collect();
        assert_eq!(names, vec!["alpha", "beta"]); // sorted
    }
}
